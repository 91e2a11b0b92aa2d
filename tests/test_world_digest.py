"""Pinned per-seed detection worlds.

Each digest is a sha256 over one world's sorted ground-truth rows, every
IXP's member list (ASN order plus the attributes the member's AS carries)
and the published directory records.  The literals were computed with the
object-pool world builder that preceded the columnar one, so a builder
change that moves any member, interface or record of these worlds fails
here.
"""

import hashlib

import pytest

from repro.sim import scenarios


def world_digest(world) -> str:
    """sha256 of a detection world's truth, memberships and directory."""
    lines = []
    for key in sorted(world.truth):
        t = world.truth[key]
        lines.append(
            f"truth {t.ixp_acronym} {t.address.value} {t.asn} {t.is_remote} "
            f"{t.behavior} {t.base_rtt_ms!r} {t.circuit_km!r} {t.on_lan}"
        )
    for acronym in sorted(world.ixps):
        for member in world.ixps[acronym].members:
            asys = member.network
            city = asys.home_city.name if asys.home_city else None
            lines.append(
                f"member {acronym} {asys.asn} {asys.name} {asys.kind} "
                f"{asys.policy} {asys.address_space} {city}"
            )
    for acronym in world.directory.ixps():
        for r in world.directory.targets_for(acronym):
            lines.append(
                f"record {r.ixp_acronym} {r.address.value} {r.asn} {r.policy} "
                f"{r.stale} {r.asn_after_change} {r.asn_change_time!r} "
                f"{r.well_known}"
            )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


MINI3_DIGESTS = {
    1: "391070219b8e39e915b55ae9403fedfd08531b78a70b9b14467d60322c194599",
    2: "e85d58d496fb6229fd3295a70eccaa031f2d1754c18e384863573cea641e32ae",
    3: "2fb32d2d46bf3ae6f83fb65570a83d6b7e58b495be9e5cc7cfe6aeef03176a0a",
    4: "f1eb61867667f28c1593a8d2fc5434b4cb4b9785fe6e0d719d1ac65d1db67c18",
}

PAPER22_SEED11_DIGEST = (
    "a434ae56a92c1eb416b51f687e224ad51acb8cf7debc73e4931b8a18eb1bab3b"
)


@pytest.mark.parametrize("seed", sorted(MINI3_DIGESTS))
def test_mini3_world_is_pinned(seed):
    assert world_digest(scenarios.mini3(seed)) == MINI3_DIGESTS[seed]


def test_paper22_world_is_pinned():
    assert world_digest(scenarios.paper22(11)) == PAPER22_SEED11_DIGEST
