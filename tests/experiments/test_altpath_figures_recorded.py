"""Fig 8 / Fig 9 metrics against values recorded before the alt-path
sample store and path model were rewritten (array store, cached stats,
memoised model): the rewrite must not move a single reported number.
"""

from repro.experiments import fig8_altpath_rtt, fig9_altpath_loss

FIG8 = {
    "rank1.median_delta_ms": 1.51,
    "rank1.faster_share": 0.335,
    "rank1.worse20ms_share": 0.052,
    "rank2.median_delta_ms": 1.58,
    "rank2.faster_share": 0.338,
    "rank2.worse20ms_share": 0.06,
    "rank3.median_delta_ms": 1.48,
    "rank3.faster_share": 0.318,
    "rank3.worse20ms_share": 0.075,
}

FIG9 = {
    "median_retx_delta": 0.0,
    "bgp_only_loss": 0.02144,
    "edge_fabric_loss": 0.00045,
    "loss_ratio": 48.1,
}


def test_fig8_metrics_unchanged():
    assert fig8_altpath_rtt.run().metrics == FIG8


def test_fig9_metrics_unchanged():
    assert fig9_altpath_loss.run().metrics == FIG9
