"""Ablations: join-order selection, sub-bucket sweep, aggregation placement.

These isolate DESIGN.md's three design choices on identical cost models
(unlike Table I, which compares whole systems with their own constants).
"""

from repro.experiments import ablations


def test_ablation_join_order(once, defaults):
    rows = once(ablations.run_join_order_ablation, defaults)
    print()
    print(ablations.render(rows, "Ablation — join-order selection (SSSP)"))
    by = {r.name: r for r in rows}
    static_edges = next(r for n, r in by.items() if "edges" in n)
    vote = next(r for n, r in by.items() if "vote" in n)
    # serializing the big static relation moves far more pre-join data
    # (the materializing all-to-all is identical across layouts)
    assert static_edges.intra_tuples > 1.5 * vote.intra_tuples
    assert static_edges.comm_bytes > vote.comm_bytes
    assert vote.modeled_seconds < static_edges.modeled_seconds


def test_ablation_subbuckets(once, defaults):
    rows = once(ablations.run_subbucket_ablation, defaults,
                counts=(1, 2, 4, 8), n_ranks=512)
    print()
    print(ablations.render(rows, "Ablation — sub-bucket sweep (SSSP @512)"))
    # more sub-buckets -> strictly more intra-bucket replication bytes...
    assert rows[-1].comm_bytes > rows[0].comm_bytes


def test_ablation_aggregation_placement(once, defaults):
    rows = once(ablations.run_aggregation_placement_ablation, defaults)
    print()
    print(ablations.render(rows, "Ablation — aggregation placement (SSSP)"))
    fused, global_ = rows
    # the global-hashmap strategy always moves strictly more bytes: every
    # improvement crosses the wire twice
    assert global_.comm_bytes > fused.comm_bytes
