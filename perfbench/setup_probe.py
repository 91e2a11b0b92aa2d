"""Set-up probe: import the pipeline, resolve one workload, print ``ready``.

The benchmark times a fresh interpreter running this from spawn to the
``ready`` line: the set-up a user pays before a study's first trial.

    PYTHONPATH=src python3 perfbench/setup_probe.py detect_fresh
"""

import sys

import detect

if __name__ == "__main__":
    name = sys.argv[1]
    detect.make_study(name)
    detect.make_config(name, (0,), "unused")
    print("ready", flush=True)
