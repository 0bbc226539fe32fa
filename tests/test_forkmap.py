"""The fork map and the walks that run through it: each share pinned to its
own CPU, the parent's mask restored, maps inside a share run in-process,
and ``simulate`` and the local-time tail give the same bytes at every
worker count W."""
import json
import os

import pytest

import oracles as oc
from covertime import (
    ComponentView,
    MultiGraph,
    StepLimitExceeded,
    gw_scaling_suite,
    local_time_tail_check,
    path_graph,
    simulate,
)
from covertime import forkmap, walks

_LOOPY = ComponentView.whole(MultiGraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                                            (6, 0), (0, 3, 2), (2, 2), (5, 1)]))


def _workers(monkeypatch, w: int) -> None:
    monkeypatch.setattr(forkmap, "usable_cpus", lambda: w)


def _count_forks(monkeypatch, tmp_path):
    """Count the forks of this process and of its children: each appends a
    byte to one file. Returns a function that reads the count."""
    log = tmp_path / "forks"
    log.touch()
    real = os.fork

    def fork():
        with open(log, "ab") as fh:
            fh.write(b".")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return lambda: log.stat().st_size


def test_usable_cpus_follow_the_affinity_mask():
    assert forkmap.usable_cpus() == len(os.sched_getaffinity(0))


@pytest.mark.skipif(forkmap.usable_cpus() < 2, reason="pinning needs two CPUs")
def test_each_share_runs_pinned_to_its_own_cpu():
    mask = os.sched_getaffinity(0)
    got = forkmap.fork_map(lambda i: (os.getpid(), os.sched_getaffinity(0)),
                           [(i,) for i in range(len(mask))])
    assert all(ok for ok, _ in got)
    pids = {pid for _, (pid, _) in got}
    shares = [cpus for _, (_, cpus) in got]
    assert len(pids) == len(mask)
    assert all(len(cpus) == 1 for cpus in shares)
    assert set().union(*shares) == mask
    assert os.sched_getaffinity(0) == mask
    oc.assert_no_child_left()


class _Unwind(BaseException):
    pass


@pytest.mark.parametrize("error", [ValueError, _Unwind])
def test_parent_mask_restored_when_its_share_raises(monkeypatch, error):
    mask = os.sched_getaffinity(0)
    _workers(monkeypatch, 2)

    def job(i):
        if i == 0:
            raise error("share 0")
        return i

    if error is _Unwind:
        with pytest.raises(_Unwind):
            forkmap.fork_map(job, [(0,), (1,)])
    else:
        got = forkmap.fork_map(job, [(0,), (1,)])
        assert not got[0][0] and str(got[0][1]) == "share 0" and got[1] == (True, 1)
    assert os.sched_getaffinity(0) == mask
    oc.assert_no_child_left()


# Every quantity under each start policy (hitting and commute always start at
# u). Vector batches hold 1001 walks (1050 for the worst start), scalar ones
# 7 (49), so every batch splits unevenly at W = 3.
SHARE_CASES = {
    **{f"{q}-{p}": (q, p) for q in ("cover", "cover_return", "blanket")
       for p in ("fixed", "stationary", "worst_over_all_starts")},
    "hitting": ("hitting", "fixed"),
    "commute": ("commute", "fixed"),
}


@pytest.mark.parametrize("case", sorted(SHARE_CASES))
def test_simulate_bytes_equal_at_every_worker_count(monkeypatch, tmp_path, case):
    quantity, policy = SHARE_CASES[case]
    if quantity in ("hitting", "commute"):
        kw = dict(u=1, v=6)
    else:
        kw = dict(start_policy=policy, start=2 if policy == "fixed" else None)
    worst = policy == "worst_over_all_starts"
    trials = 7 if quantity == "blanket" else 150 if worst else 1001
    forks = _count_forks(monkeypatch, tmp_path)
    outs = set()
    for w in (1, 2, 3):
        _workers(monkeypatch, w)
        before = forks()
        est = simulate(_LOOPY, quantity, trials=trials, master_seed=21, **kw)
        assert forks() - before == w - 1
        outs.add((json.dumps(est.to_dict()), est.start, est.samples.tobytes()))
    assert len(outs) == 1
    oc.assert_no_child_left()


def test_300_trial_cover_batch_stays_in_one_process(monkeypatch, tmp_path):
    forks = _count_forks(monkeypatch, tmp_path)
    _workers(monkeypatch, 3)
    simulate(_LOOPY, "cover", start=0, trials=300, master_seed=1)
    assert forks() == 0


def test_tail_check_points_equal_in_one_and_two_processes(monkeypatch, tmp_path):
    forks = _count_forks(monkeypatch, tmp_path)
    points = []
    for w in (1, 2):
        _workers(monkeypatch, w)
        points.append(local_time_tail_check(_LOOPY, 0, 4, 6.0, [0.5, 1.0, 2.0],
                                            trials=600, master_seed=13))
    assert points[0] == points[1]
    assert forks() == 1
    oc.assert_no_child_left()


@pytest.mark.parametrize("trials", [50, 600])
def test_step_limit_in_a_child_share_reaches_the_caller(monkeypatch, trials):
    # the longest walk of the second share, which the child runs, is longer
    # than every walk of the first: one step less as the cap stops it there
    c = ComponentView.whole(path_graph(12))
    _workers(monkeypatch, 1)
    samples = simulate(c, "cover", start=5, trials=trials, master_seed=6).samples
    first, second = samples[:trials // 2].max(), samples[trials // 2:].max()
    assert second > first
    _workers(monkeypatch, 2)
    with pytest.raises(StepLimitExceeded, match=f"exceeded {second - 1} steps"):
        simulate(c, "cover", start=5, trials=trials, master_seed=6, step_cap=int(second) - 1)
    oc.assert_no_child_left()


@pytest.mark.skipif(forkmap.usable_cpus() < 2, reason="pinning needs two CPUs")
def test_suite_cells_do_not_fork_again(monkeypatch, tmp_path):
    # every cell's worst-start walks (16, 32 or 64 starts of 40 walks), and
    # so each process's pooled batch of them, hold more than 2 * _SHARE_WALKS
    # walks: a batch that saw two CPUs would fork; pinned to one, the cells'
    # walks stay in their process
    assert 16 * 40 > 2 * walks._SHARE_WALKS
    mask = os.sched_getaffinity(0)
    forks = _count_forks(monkeypatch, tmp_path)
    report = json.dumps(gw_scaling_suite([16, 32, 64], seeds=2, trials=40, master_seed=5).to_dict())
    assert forks() == len(mask) - 1
    os.sched_setaffinity(0, {min(mask)})
    try:
        one_process = json.dumps(
            gw_scaling_suite([16, 32, 64], seeds=2, trials=40, master_seed=5).to_dict())
    finally:
        os.sched_setaffinity(0, mask)
    assert forks() == len(mask) - 1
    assert report == one_process
    oc.assert_no_child_left()
