"""E9 benchmark — §III-B multi-pair merge variant."""

from repro.experiments import ablation_multipair


def test_ablation_multipair(benchmark, save_report):
    res = benchmark.pedantic(ablation_multipair.run, rounds=1, iterations=1)
    save_report("E9_ablation_multipair", ablation_multipair.format_result(res))
    # coarser merge decisions: close to single-pair on average
    assert res.avg_multi >= res.avg_single - 0.25
    # the compile-time saving, counted on each large kernel: fewer
    # selection rounds and fewer live pairs examined, the same affinities
    assert res.merge_work
    for w in res.merge_work:
        single, multi = w["single"], w["multi"]
        assert multi["rounds"] < single["rounds"]
        assert multi["pairs_examined"] < single["pairs_examined"]
        assert multi["affinity_evals"] == single["affinity_evals"]
