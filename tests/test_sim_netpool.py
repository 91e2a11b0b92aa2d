"""The global network pool."""

import numpy as np
import pytest

from engine_equivalence import columnar_pool_pair
from repro.errors import ConfigurationError
from repro.geo.cities import default_city_db
from repro.sim.netpool import (
    SCOPE_CONTINENTS,
    ColumnarNetworkPool,
    NetworkPool,
    NetworkPoolConfig,
    generate_network_pool,
)
from repro.types import ASN

#: Every column of a ColumnarNetworkPool.
COLUMNS = (
    "asn", "continent_idx", "city_idx", "kind_idx", "policy_idx",
    "propensity", "scope_mask", "address_space",
)


@pytest.fixture(scope="module")
def pool():
    db = default_city_db()
    columns = generate_network_pool(db, NetworkPoolConfig(size=800, seed=9))
    return columns.materialize()


class TestGeneration:
    def test_size_and_unique_asns(self, pool):
        assert len(pool) == 800
        asns = {n.asn for n in pool.networks}
        assert len(asns) == 800

    def test_deterministic(self):
        db = default_city_db()
        a = generate_network_pool(db, NetworkPoolConfig(size=100, seed=4))
        b = generate_network_pool(db, NetworkPoolConfig(size=100, seed=4))
        for column in COLUMNS:
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_seed_changes_pool(self):
        db = default_city_db()
        a = generate_network_pool(db, NetworkPoolConfig(size=100, seed=4))
        b = generate_network_pool(db, NetworkPoolConfig(size=100, seed=5))
        assert not np.array_equal(a.city_idx, b.city_idx)

    def test_scope_includes_home_continent(self, pool):
        for n in pool.networks:
            assert n.home_city.continent in n.scope

    def test_some_global_networks(self, pool):
        globals_ = [n for n in pool.networks if len(n.scope) == 6]
        assert globals_
        assert len(globals_) < len(pool) * 0.1

    def test_europe_dominates(self, pool):
        eu = sum(1 for n in pool.networks if n.home_city.continent == "EU")
        assert eu > 0.3 * len(pool)

    def test_address_space_positive(self, pool):
        assert all(n.asys.address_space >= 256 for n in pool.networks)


class TestSampling:
    def test_eligibility(self, pool):
        for n in pool.eligible_networks("SA"):
            assert "SA" in n.scope

    def test_sample_members_distinct_and_eligible(self, pool):
        rng = np.random.default_rng(0)
        members = pool.sample_members(rng, "EU", 50)
        assert len({m.asn for m in members}) == 50
        assert all("EU" in m.scope for m in members)

    def test_sample_respects_exclusion(self, pool):
        rng = np.random.default_rng(0)
        excluded = {pool.networks[0].asn}
        members = pool.sample_members(rng, "EU", 20, exclude=excluded)
        assert excluded.isdisjoint({m.asn for m in members})

    def test_oversample_raises(self, pool):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            pool.sample_members(rng, "OC", 10_000)

    def test_high_propensity_sampled_more(self, pool):
        """The recurrence of high-propensity networks across draws is what
        produces Figure 4a's IXP-count tail."""
        rng = np.random.default_rng(1)
        top = max(pool.eligible_networks("EU"), key=lambda n: n.propensity)
        hits = 0
        for _ in range(20):
            members = pool.sample_members(rng, "EU", 60)
            hits += top.asn in {m.asn for m in members}
        assert hits >= 15

    def test_get(self, pool):
        n = pool.networks[5]
        assert pool.get(n.asn) is n
        with pytest.raises(ConfigurationError):
            pool.get(ASN(1))


class TestColumnarBackend:
    """The struct-of-arrays pool against its materialized object form.

    The object form is built from the columns entry for entry, so the
    standard here is *bit-exact* identity: the column-native sampler the
    detection world uses must draw exactly what the object sampler does.
    """

    @pytest.fixture(scope="class")
    def pools(self):
        return columnar_pool_pair(size=2000, seed=7)

    def test_materialized_views_match_object_pool(self, pools):
        obj, col = pools
        assert isinstance(col, ColumnarNetworkPool)
        assert isinstance(obj, NetworkPool)
        assert len(obj) == len(col)
        for i, n in enumerate(obj.networks):
            continent = SCOPE_CONTINENTS[col.continent_idx[i]]
            assert n.asn == col.asn[i]
            assert n.home_city.continent == continent
            assert n.home_city is col.cities_by_continent[continent][
                col.city_idx[i]
            ]
            assert n.propensity == col.propensity[i]
            assert n.asys.address_space == col.address_space[i]

    def test_eligibility_indices_match(self, pools):
        obj, col = pools
        for continent in SCOPE_CONTINENTS:
            assert np.array_equal(
                col.eligible_for(continent), obj.eligible_for(continent)
            ), continent

    def test_sampling_matches_object_pool_asn_for_asn(self, pools):
        obj, col = pools
        exclude = {obj.networks[0].asn, obj.networks[7].asn}
        objects = obj.sample_members(
            np.random.default_rng(3), "EU", 40, exclude=exclude
        )
        indices = col.sample_member_indices(
            np.random.default_rng(3), "EU", 40,
            exclude_asns=np.fromiter(exclude, dtype=np.int64),
        )
        assert [n.asn for n in objects] == col.asn[indices].tolist()

    def test_lazy_network_view_round_trips(self, pools):
        obj, col = pools
        for i in (0, 1234, len(obj) - 1):
            assert col.network(i) == obj.networks[i]
            assert col.network(i) is not obj.networks[i]
            assert col.scope_of(i) == obj.networks[i].scope
