import numpy as np
import pytest

from apnlab.constructions import th31_criterion
from apnlab.field import field_for
from apnlab.search import (
    SplitMix64,
    VerificationError,
    _batch_modify_apn,
    _CubeKernel,
    _full_l_tables,
    enumerate_subspaces,
    exp_sum_crosscheck,
    linear_map_from_index,
    map_space_size,
    search_tr_l,
    t0_basis,
    th31_crosscheck,
)
from apnlab.vbf import power_function


class TestRng:
    def test_splitmix64_known_stream(self):
        # reference values of the standard splitmix64 stream from seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_below_is_deterministic(self):
        a = [SplitMix64(9).below(1000) for _ in range(5)]
        b = [SplitMix64(9).below(1000) for _ in range(5)]
        assert a == b

    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
    @pytest.mark.parametrize("bound", [2**20, 2**30, 2**56, 1000])
    def test_below_many_equals_below(self, seed, bound):
        scalar, batch = SplitMix64(seed), SplitMix64(seed)
        want = [scalar.below(bound) for _ in range(300)]
        got = (batch.below_many(bound, 200).tolist()
               + batch.below_many(bound, 100).tolist())
        assert got == want
        assert batch.state == scalar.state


class TestEncoding:
    def test_t0_basis_spans_the_hyperplane(self):
        for n in (4, 5, 6):
            spec = field_for(n)
            basis = t0_basis(spec)
            assert len(basis) == n - 1
            span = {0}
            for b in basis:
                span |= {x ^ b for x in span}
            assert span == set(spec.trace_zero_elements())

    def test_decoded_map_kills_e0(self):
        spec = field_for(5)
        e0 = spec.trace_one_element()
        for idx in (0, 1, 37, map_space_size(spec) - 1):
            L = linear_map_from_index(spec, idx)
            assert L(e0) == 0
            for i, b in enumerate(t0_basis(spec)):
                assert L(b) == (idx >> (5 * i)) & 31


class TestTrLSearch:
    def test_exhaustive_counts(self):
        # the counts in a second polynomial basis; `verify theorem31`
        # checks them in the default one
        assert search_tr_l(field_for(4, 0x19)).hits == 448
        assert search_tr_l(field_for(5, 0x29)).hits == 4608

    def test_count_independent_of_workers(self):
        r1 = search_tr_l(field_for(4), workers=1, cap=500)
        r2 = search_tr_l(field_for(4), workers=3, cap=500)
        assert r1.hits == r2.hits == 448
        assert r1.hit_list == r2.hit_list

    def test_count_independent_of_e0_choice(self):
        # the constrained count is the same for either trace-one anchor
        spec = field_for(4)
        cube = power_function(spec, 3)
        ones = [x for x in range(16) if spec.trace_absolute(x)]
        counts = []
        for e0 in ones[:2]:
            c = 0
            for idx in range(map_space_size(spec)):
                L = linear_map_from_index(spec, idx, e0)
                if th31_criterion(cube, L, e0):
                    c += 1
            counts.append(c)
        assert counts[0] == counts[1] == 448

    def test_random_mode_reproducible(self):
        spec = field_for(5)
        r1 = search_tr_l(spec, mode="random", samples=5000, seed=123)
        r2 = search_tr_l(spec, mode="random", samples=5000, seed=123)
        assert r1.hits == r2.hits and r1.hit_list == r2.hit_list
        assert r1.examined == 5000

    def test_random_mode_n6_hits_are_apn(self):
        spec = field_for(6)
        rep = search_tr_l(spec, mode="random", samples=10**6, seed=9,
                          cap=1000)
        assert rep.hits > 0
        from apnlab.constructions import hyperplane_modify

        cube = power_function(spec, 3)
        for h in rep.hit_list:
            L = linear_map_from_index(spec, h)
            assert hyperplane_modify(cube, L).is_apn()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_must_be_positive(self, workers):
        with pytest.raises(ValueError, match="worker count must be positive"):
            search_tr_l(field_for(4), workers=workers)

    def test_random_mode_needs_seed(self):
        with pytest.raises(ValueError):
            search_tr_l(field_for(4), mode="random", samples=10)

    def test_big_exhaustive_needs_opt_in(self):
        with pytest.raises(ValueError):
            search_tr_l(field_for(6))

    def test_every_hit_is_apn(self):
        spec = field_for(4)
        rep = search_tr_l(spec, cap=448)
        from apnlab.constructions import hyperplane_modify

        cube = power_function(spec, 3)
        for h in rep.hit_list[:32]:
            L = linear_map_from_index(spec, h)
            assert hyperplane_modify(cube, L).is_apn()

    def test_hit_list_capped(self):
        rep = search_tr_l(field_for(4), cap=10)
        assert len(rep.hit_list) == 10 and rep.hits == 448

    def test_exhaustive_scan_equals_per_index_kernel(self):
        # the digit-at-a-time scan and the one-gather-per-index test
        # agree on every candidate at n = 5
        spec = field_for(5)
        kernel = _CubeKernel(spec)
        idx = np.arange(map_space_size(spec), dtype=np.int64)
        per_index = idx[kernel.holds(idx)].tolist()
        count, hits = kernel.scan(0, spec.size, cap=10**6)
        assert count == len(per_index) == 4608
        assert hits == per_index
        # a split of the top digit's range gives the same hits in order
        parts = [kernel.scan(lo, hi, cap=10**6)
                 for lo, hi in ((0, 7), (7, 8), (8, 32))]
        assert [h for _, hl in parts for h in hl] == per_index

    def test_degree6_exhaustive_count_default_suite(self):
        spec = field_for(6)
        rep = search_tr_l(spec, long_ok=True)
        assert rep.hits == 35648 and rep.examined == 1 << 30
        # the first hits, against the direct APN test of every candidate
        # up to the last of them
        rep = search_tr_l(spec, long_ok=True, cap=16)
        idx = np.arange(rep.hit_list[-1] + 1, dtype=np.int64)
        apn = np.concatenate([
            _batch_modify_apn(spec, _full_l_tables(spec, idx[lo:lo + 4096], True))
            for lo in range(0, idx.size, 4096)])
        assert idx[apn].tolist() == list(rep.hit_list)

    def test_index_wider_than_63_bits_rejected(self):
        for mode in ("exhaustive", "random"):
            with pytest.raises(ValueError, match="63"):
                search_tr_l(field_for(9), mode=mode, samples=10, seed=1,
                            long_ok=True)

    def test_base_function_checked_once_per_search(self, monkeypatch):
        from apnlab.vbf import VBF

        calls = []
        real = VBF.is_apn
        monkeypatch.setattr(VBF, "is_apn", lambda self: calls.append(1) or real(self))
        search_tr_l(field_for(4), cap=10)
        # one check of x^3, then one direct test per verified hit
        assert len(calls) == 11

    def test_disagreeing_hit_raises_named_error(self, monkeypatch):
        import apnlab.search as search

        spec = field_for(4)
        monkeypatch.setattr(search, "hyperplane_modify",
                            lambda F, L: power_function(spec, 7))
        with pytest.raises(VerificationError, match="direct APN test"):
            search_tr_l(spec, cap=4)


@pytest.mark.long
def test_degree6_exhaustive_count():
    """Full 2^30 scan at n=6 split into 4 worker ranges, scanned in-process
    below n = 7 (about 0.1 s, as the default-suite count above shows).

    The count is this artifact's own derived ground truth; 1% of hits are
    re-verified against the direct APN test inside the search.
    """
    rep = search_tr_l(field_for(6), workers=4, long_ok=True)
    assert rep.hits == 35648
    assert rep.examined == 1 << 30


@pytest.mark.long
def test_degree7_exhaustive_count_on_two_processes():
    """From degree 7 on, `workers` > 1 scans in a process pool; the merged
    report is the x^3 count at n = 7, hits in index order."""
    rep = search_tr_l(field_for(7), workers=2, cap=500, long_ok=True)
    assert rep.hits == 128 and rep.workers == 2
    assert list(rep.hit_list) == sorted(rep.hit_list) and len(rep.hit_list) == 128


class TestCrossChecks:
    # the n = 4 cross-checks run in a second polynomial basis; `verify
    # theorem31` and `verify theorem35` run them in the default one
    def test_th31_exhaustive_n4(self):
        rep = th31_crosscheck(field_for(4, 0x19))
        assert rep.agrees and rep.criterion_hits == 448

    def test_th31_sampled_n5(self):
        rep = th31_crosscheck(field_for(5), samples=10000, seed=1)
        assert rep.agrees and rep.examined == 10000

    def test_exp_sum_exhaustive_n4(self):
        rep = exp_sum_crosscheck(field_for(4, 0x19))
        assert rep.agrees and rep.examined == 1 << 16


# enumerate_subspaces(5, codim, count, seed): the hyperplane functionals
# (codimension 1, count 6) and the (subspace, reps) pairs (codimension 2,
# count 4), pinned so that every rewrite of the sampler keeps its stream.
_PINNED_FUNCTIONALS = {
    0: [23, 2, 17, 20, 26, 3],
    5: [29, 20, 18, 15, 13, 12],
    77: [30, 3, 27, 17, 11, 7],
}
_PINNED_SPANS = {
    0: [((0, 3, 8, 11, 17, 18, 25, 26), (0, 1, 4, 5)),
        ((0, 4, 11, 15, 16, 20, 27, 31), (0, 1, 2, 3)),
        ((0, 2, 8, 10, 17, 19, 25, 27), (0, 1, 4, 5)),
        ((0, 3, 8, 11, 20, 23, 28, 31), (0, 1, 4, 5))],
    5: [((0, 5, 11, 14, 17, 20, 26, 31), (0, 1, 2, 3)),
        ((0, 5, 9, 12, 18, 23, 27, 30), (0, 1, 2, 3)),
        ((0, 4, 8, 12, 16, 20, 24, 28), (0, 1, 2, 3)),
        ((0, 4, 9, 13, 18, 22, 27, 31), (0, 1, 2, 3))],
    77: [((0, 1, 10, 11, 18, 19, 24, 25), (0, 2, 4, 6)),
         ((0, 1, 12, 13, 18, 19, 30, 31), (0, 2, 4, 6)),
         ((0, 3, 4, 7, 24, 27, 28, 31), (0, 1, 8, 9)),
         ((0, 3, 8, 11, 20, 23, 28, 31), (0, 1, 4, 5))],
}


class TestSubspaceSampler:
    @pytest.mark.parametrize("seed", sorted(_PINNED_SPANS))
    def test_pinned_stream(self, seed):
        hps = enumerate_subspaces(5, 1, 6, seed=seed)
        assert [h.a for h in hps] == _PINNED_FUNCTIONALS[seed]
        decs = enumerate_subspaces(5, 2, 4, seed=seed)
        assert [(d.subspace, d.reps) for d in decs] == _PINNED_SPANS[seed]

    def test_all_63_hyperplanes_found(self):
        hps = enumerate_subspaces(6, 1, 63, seed=0)
        assert len({h.a for h in hps}) == 63

    def test_codim2_subspace_size(self):
        for dec in enumerate_subspaces(4, 2, 5, seed=2):
            assert len(dec.subspace) == 4

    def test_deterministic(self):
        a = enumerate_subspaces(5, 2, 8, seed=77)
        b = enumerate_subspaces(5, 2, 8, seed=77)
        assert [d.basis for d in a] == [d.basis for d in b]

    def test_bad_codim_rejected(self):
        with pytest.raises(ValueError):
            enumerate_subspaces(4, 3, 1, seed=0)
