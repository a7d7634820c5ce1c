"""The workload seed alone fixes every input the program sees."""

import workloads
from workloads import FULL, TOY, census_csv, deep_slice, desk_stop, synthetic_counts


def _inputs(seed):
    return (
        desk_stop(seed, FULL.desk_n),
        deep_slice(seed, FULL),
        census_csv(synthetic_counts(seed, TOY)),
    )


def test_same_seed_gives_identical_inputs():
    assert _inputs(7) == _inputs(7)


def test_different_seeds_give_different_inputs():
    a, b = _inputs(7), _inputs(8)
    assert all(x != y for x, y in zip(a, b))


def test_inputs_stay_in_their_stated_ranges():
    for seed in range(50):
        assert 10_000 <= desk_stop(seed, FULL.desk_n) <= 30_000
        first, last = deep_slice(seed, FULL)
        assert 430_000 <= first <= 449_600 and last == first + 399 <= workloads.FULL_X


def test_synthetic_census_rises_strictly_and_starts_with_true_counts():
    from primecensus import census_sweep

    counts = synthetic_counts(3, TOY)
    assert len(counts) == TOY.analysis_n - 1
    engine = [r.prime_count for r in census_sweep(TOY.analysis_engine_n)]
    assert counts[: len(engine)].tolist() == engine
    assert (counts[len(engine) - 1 :][1:] > counts[len(engine) - 1 :][:-1]).all()
