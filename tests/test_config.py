"""Run configuration: the student's layer plan."""

from spikegraph.config import RunConfig
from spikegraph.network import STUDENT_PLAN_FULL, STUDENT_PLAN_TOY, LayerPlan


def test_defaults_give_the_preset_plans():
    assert RunConfig().student_plan() == STUDENT_PLAN_TOY
    assert RunConfig({"blocks": {"preset": "paper"}}).student_plan() == STUDENT_PLAN_FULL


def test_encoder_width_and_strides_apply_over_a_preset():
    plan = RunConfig({"ssc": {"hidden_channels": 8}}).student_plan()
    assert plan == LayerPlan(8, STUDENT_PLAN_TOY.widths, STUDENT_PLAN_TOY.strides)
    strides = (1, 2, 1, 2, 1, 1)
    plan = RunConfig({"blocks": {"preset": "paper", "strides": list(strides)}}).student_plan()
    assert plan == LayerPlan(3, STUDENT_PLAN_FULL.widths, strides)
    plan = RunConfig({"blocks": {"widths": [8, 8], "strides": [1, 2]}}).student_plan()
    assert plan == LayerPlan(3, (8, 8), (1, 2))
