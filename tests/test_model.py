import json

import numpy as np
import pytest

from conftest import fig3_instance, plan_of, random_multi_pool
from staffing_minimax.model import (
    EmptyHorizon, Instance, MultiStationInstance, NegativeParameter,
    NonMonotoneAvailability, PredictionSequence, ReleaseInstance,
    SequenceError, StationSpec, UNLIMITED, check_feasibility,
    imbalance_cost, instance_from_dict, instance_to_dict, joint_cost,
    make_instance, multi_station_cost, multi_station_to_dict,
    release_to_dict, staffing_cost, validate_instance,
    validate_release_instance)


def test_minimal_legal_instance():
    inst = validate_instance(make_instance([1.0], [[1.0]], (0, 1), [0.0]))
    assert inst.horizon == 1 and inst.n_pools == 1
    assert inst.delta(0) == 1.0 and inst.eps(0) == 0.0


def test_non_monotone_availability_rejected():
    with pytest.raises(NonMonotoneAvailability):
        validate_instance(make_instance([1.0], [[0.5, 0.6]], (0, 1), [0, 0]))


def test_negative_parameters_rejected():
    with pytest.raises(NegativeParameter):
        validate_instance(make_instance([-1.0], [[1.0]], (0, 1), [0.0]))
    with pytest.raises(NegativeParameter):
        validate_instance(make_instance([1.0], [[1.0]], (0, 1), [-0.1]))


def test_empty_horizon_rejected():
    inst = Instance(np.array([1.0]), np.zeros((1, 0)), (0.0, 1.0),
                    np.zeros(0), np.zeros(0), 1.0, 1.0)
    with pytest.raises(EmptyHorizon):
        validate_instance(inst)


def test_fig3_setup_is_valid():
    for which in "abc":
        inst = fig3_instance(which)
        assert inst.horizon == 10


def test_staffing_cost_values():
    inst = make_instance([10.0], [[1.0]], (0, 2), [2.0])
    assert staffing_cost(inst, plan_of([[1.0]]), 1.0) == 0.0
    assert staffing_cost(inst, plan_of([[0.7]]), 1.0) == pytest.approx(0.3)
    inst3 = make_instance([10.0], [[1.0]], (0, 2), [2.0], over_cost=3.0)
    assert staffing_cost(inst3, plan_of([[1.2]]), 1.0) == pytest.approx(0.6)


def test_staffing_cost_equals_max_form():
    rng = np.random.default_rng(5)
    for _ in range(200):
        c, C = rng.uniform(0.1, 3, size=2)
        h, d = rng.uniform(0, 2, size=2)
        plus_form = c * max(0, d - h) + C * max(0, h - d)
        max_form = max(c * (d - h), C * (h - d), 0.0)
        assert plus_form == pytest.approx(max_form, abs=1e-12)
        assert imbalance_cost(c, C, h, d) == pytest.approx(max_form, abs=1e-12)


def test_multi_station_cost_aggregation():
    rho = np.array([[1.0, 0.5]])
    st_a = StationSpec((0, 1), np.array([0.5, 0.2]))
    st_b = StationSpec((0, 1), np.array([0.5, 0.2]))
    plans = [plan_of([[0.4, 0.4]]), plan_of([[0.2, 0.3]])]
    msi_max = MultiStationInstance(np.array([3.0]), rho, (st_a, st_b), "max")
    msi_sum = MultiStationInstance(np.array([3.0]), rho, (st_a, st_b), "sum")
    d = [1.0, 1.0]   # per-station understaffing 0.2 and 0.5
    assert multi_station_cost(msi_max, plans, d) == pytest.approx(0.5)
    assert multi_station_cost(msi_sum, plans, d) == pytest.approx(0.7)
    msi_one = MultiStationInstance(np.array([3.0]), rho, (st_a,), "max")
    single = msi_one.station_instance(0)
    assert multi_station_cost(msi_one, plans[:1], d[:1]) == pytest.approx(
        staffing_cost(single, plans[0], d[0]))


def test_joint_cost_values():
    inst = make_instance([10.0], [[1.0]], (0, 1), [0.0])
    free = ReleaseInstance(base=inst)
    plan = plan_of([[1.0]])
    assert joint_cost(free, plan, 1.0) == staffing_cost(inst, plan, 1.0)
    paid = ReleaseInstance(base=inst, wages=np.array([[0.1]]))
    assert joint_cost(paid, plan, 1.0) == pytest.approx(0.1)
    half = ReleaseInstance(base=inst, wages=np.array([[0.5]]))
    assert joint_cost(half, plan, 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        joint_cost(paid, plan_of([[1.0]], [[0.5]]), 1.0)


def test_check_feasibility_boundaries():
    inst = make_instance([2.0], [[0.5]], (0, 1), [0.5])
    at_cap = plan_of([[2.0 * 0.5]])
    ok, viol = check_feasibility(inst, at_cap)
    assert ok and not viol
    over = plan_of([[2.0 * 0.5 + 0.01]])
    ok, viol = check_feasibility(inst, over)
    assert not ok and "supply" in viol[0]


def test_check_feasibility_release_mode():
    inst = make_instance([3.0], [[1.0, 0.8]], (0, 1), [0.5, 0.2])
    ri = ReleaseInstance(base=inst, budget=1.0, wages=np.array([[0.4, 0.4]]),
                         epoch_breaks=(1, 2), release_fees=(0.2, UNLIMITED))
    plan = plan_of([[1.0, 1.0]], [[1.0, 0.0]])
    spend = 0.4 + 0.4 + 0.2      # wages + day-1 release fee
    assert spend == pytest.approx(1.0)
    ok, viol = check_feasibility(ri, plan)
    assert ok, viol
    # releasing in the forbidden epoch is a violation
    bad = plan_of([[1.0, 1.0]], [[0.0, 0.5]])
    ok, viol = check_feasibility(ri, bad)
    assert not ok
    # releasing more than hired so far
    early = plan_of([[0.2, 1.0]], [[0.5, 0.0]])
    ok, viol = check_feasibility(ri, early)
    assert not ok


def test_effective_bounds_monotone_and_capped():
    rng = np.random.default_rng(11)
    for _ in range(300):
        inst = random_multi_pool(rng)
        T = inst.horizon
        lo0, hi0 = inst.initial_range
        ivs = []
        lo, hi = lo0, hi0
        for t in range(1, T + 1):
            w = min(inst.delta(t), hi - lo) * rng.uniform()
            a = lo + (hi - lo - w) * rng.uniform()
            ivs.append((a, a + w))
            lo, hi = a, a + w
        seq = PredictionSequence.build(inst, ivs)
        assert np.all(np.diff(seq.effective_hi) <= 1e-12)
        assert np.all(np.diff(seq.effective_lo) >= -1e-12)
        caps = [min(inst.delta(tau) + 2 * inst.eps(tau)
                    for tau in range(0, t + 1))
                for t in range(1, T + 1)]
        gaps = seq.effective_hi - seq.effective_lo
        assert np.all(gaps <= np.array(caps) + 1e-9)


def test_sequence_width_validation():
    inst = make_instance([1.0], [[1.0, 1.0]], (0, 1), [0.5, 0.2])
    with pytest.raises(SequenceError):
        PredictionSequence.build(inst, [(0.0, 0.6), (0.0, 0.1)])
    assert len(PredictionSequence.build(inst, [(0.0, 0.5), (0.0, 0.1)])) == 2


def test_instance_json_round_trip(tmp_path):
    inst = fig3_instance("b")
    d = instance_to_dict(inst)
    assert set(d) == {"n_pools", "horizon", "pool_sizes", "availability",
                      "initial_range", "error_bounds", "inconsistency",
                      "under_cost", "over_cost"}
    back = instance_from_dict(json.loads(json.dumps(d)))
    assert np.allclose(back.availability, inst.availability)
    assert back.initial_range == inst.initial_range

    st = StationSpec((0, 1), np.array([0.5, 0.2]), 1.0, 2.0)
    msi = MultiStationInstance(np.array([1.0]), np.array([[1.0, 0.5]]),
                               (st, st), "sum")
    back = instance_from_dict(json.loads(json.dumps(multi_station_to_dict(msi))))
    assert isinstance(back, MultiStationInstance)
    assert back.objective == "sum" and back.n_stations == 2

    ri = ReleaseInstance(base=make_instance([1.0], [[1.0, 0.5]], (0, 1),
                                            [0.5, 0.2]),
                         budget=2.0, epoch_breaks=(1, 2),
                         release_fees=(0.5, UNLIMITED))
    back = instance_from_dict(json.loads(json.dumps(release_to_dict(ri))))
    assert isinstance(back, ReleaseInstance)
    assert back.release_fees == (0.5, UNLIMITED)
    assert back.budget == 2.0


def test_release_validation():
    inst = make_instance([1.0], [[1.0, 0.5]], (0, 1), [0.5, 0.2])
    with pytest.raises(Exception):
        validate_release_instance(ReleaseInstance(
            base=inst, epoch_breaks=(2, 2), release_fees=(0.1, 0.1)))
    growing = make_instance([1.0], [[1.0, 0.5]], (0, 1), [0.2, 0.5])
    with pytest.raises(Exception):
        validate_release_instance(ReleaseInstance(base=growing))
