"""Tests of the benchmark's own code: job generation, oracles and tracing.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import calibration  # noqa: E402
import jobs  # noqa: E402
import oracles  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert jobs.make_jobs(workload, 7) == jobs.make_jobs(workload, 7)
    assert jobs.make_jobs(workload, 7) != jobs.make_jobs(workload, 8)


def _first(workload, kind, seed=3):
    return next(job for job in jobs.make_jobs(workload, seed) if job[0] == kind)


@pytest.mark.parametrize("workload, kind", [
    ("presentations", "cokernel"),
    ("presentations", "discriminant"),
    ("presentations", "transport"),
    ("presentations", "lens"),
    ("presentations", "seifert"),
    ("presentations", "forms"),
    ("presentations", "charpoly"),
    ("ak-family", "ak_row"),
])
def test_oracle_accepts_the_library_answer(workload, kind):
    job = _first(workload, kind)
    assert jobs.CHECKS[kind](job, jobs.prepare(job)()) is None


def test_oracles_reject_wrong_answers():
    from torsiontraj.abgroup import FGAbGroup
    from torsiontraj.links import lens_profile

    cokernel = _first("presentations", "cokernel")
    group, generators = jobs.prepare(cokernel)()
    wrong = FGAbGroup(group.free_rank + 1, group.invariant_factors)
    assert oracles.check_cokernel(cokernel, (wrong, generators)) is not None

    transport = _first("presentations", "transport")
    kernel = jobs.prepare(transport)()
    doubled = FGAbGroup.from_orders(list(kernel.invariant_factors) + [2])
    assert oracles.check_transport(transport, doubled) is not None

    lens = _first("presentations", "lens")
    assert oracles.check_lens(lens, lens_profile(lens[1]["p"] + 1, 1)) is not None

    forms = _first("presentations", "forms")
    assert oracles.check_forms(forms, not forms[1]["isomorphic"]) is not None

    charpoly = _first("presentations", "charpoly")
    coeffs = list(jobs.prepare(charpoly)())
    coeffs[-1] += 1
    assert oracles.check_charpoly(charpoly, tuple(coeffs)) is not None

    row = _first("ak-family", "ak_row")
    text = jobs.prepare(row)()
    k = row[1]["k"]
    assert oracles.check_ak_row(row, text.replace(f'"1/{k + 1}"', f'"2/{k + 1}"')) is not None


def test_cli_oracle_checks_exit_code_and_rows():
    job = jobs._cli(["singularity", "ak", "--k", "3"], which="ak", params=[3])
    row = "| A_3 surface | Z/4 | 1/4 (= -3/4) | six agree | deg. 2 | x | y | 0 |"
    good = oracles.TABLE_HEADER + "\n| --- |\n" + row + "\n"
    assert oracles.check_cli(job, (0, good)) is None
    assert oracles.check_cli(job, (1, good)) is not None
    assert oracles.check_cli(job, (0, good.replace("Z/4", "Z/2"))) is not None


def test_independent_arithmetic():
    assert oracles.fraction_det([[2, 1], [1, 2]]) == 3
    assert oracles.fraction_det([[0, 1], [1, 0]]) == -1
    assert oracles.lattice_det([[2, 0], [0, 3], [1, 1]], 2) == 1
    assert oracles.lattice_det([[4, 0], [0, 6]], 2) == 24
    assert oracles.seifert_order(-1, [(2, 1), (3, 1), (11, 1)]) == 5
    assert oracles.is_prime(10 ** 12 + 39) and not oracles.is_prime(10 ** 12 + 41)


def _fake_calibrator(kernel_ns):
    """A calibrator whose kernel takes kernel_ns[0] nanoseconds of a fake clock."""
    now = [0]

    def run_kernel():
        now[0] += kernel_ns[0]

    def job(ns):
        def call():
            now[0] += ns
            return ns
        return call

    cal = calibration.Calibrator(run_kernel, calibration.KERNEL_REFERENCE_MS, calibration.SHARE,
                                 clock=lambda: now[0])
    return cal, job, now


def test_calibrator_scales_by_the_kernel_times_near_a_job():
    ref_ns = int(calibration.KERNEL_REFERENCE_MS * 1e6)
    kernel_ns = [2 * ref_ns]  # a host twice as slow as the reference
    cal, job, _ = _fake_calibrator(kernel_ns)
    result, start, end = cal.timed(job(100_000_000))
    assert result == 100_000_000 and end - start == pytest.approx(0.1)
    cal.settle()
    # After a 100 ms job, SHARE of it is owed to the kernel: at least that
    # much kernel time, and at least one run.
    owed_runs = -(-calibration.SHARE * 100 // (2 * calibration.KERNEL_REFERENCE_MS))
    assert len(cal.costs_ms) == 1 + max(1, owed_runs)
    assert cal.scaled_ms(start, end) == pytest.approx(50.0)

    # Kernel samples more than WINDOW_S away from a job do not count.
    _, start, end = cal.timed(job(int(3 * calibration.WINDOW_S * 1e9)))
    kernel_ns[0] = ref_ns  # the host speeds up
    cal.settle()
    _, start2, end2 = cal.timed(job(10_000_000))
    cal.settle()
    assert cal.scaled_ms(start2, end2) == pytest.approx(10.0)


def test_calibrator_passes_a_raising_job_back():
    cal, _, _ = _fake_calibrator([1_000_000])

    def fail():
        raise ZeroDivisionError

    result, start, end = cal.timed(fail)
    assert isinstance(result, ZeroDivisionError) and end == start


def test_nested_self_times_add_up_to_the_parent_span():
    now = [0]
    tracer = Tracer(clock=lambda: now[0])

    def work(ns):
        now[0] += ns

    leaf = tracer.wrap("leaf", lambda: work(5))
    mid = tracer.wrap("mid", lambda: (work(2), leaf(), work(3)))
    top = tracer.wrap("top", lambda: (work(1), mid(), leaf(), work(4)))
    top()
    assert tracer.calls == {"top": 1, "mid": 1, "leaf": 2}
    assert tracer.self_ns == {"top": 5, "mid": 5, "leaf": 10}
    assert sum(tracer.self_ns.values()) == now[0] == 20


def test_a_raising_span_still_counts():
    now = [0]
    tracer = Tracer(clock=lambda: now[0])

    def fail():
        now[0] += 3
        raise ValueError

    inner = tracer.wrap("inner", fail)

    def catch():
        now[0] += 1
        with pytest.raises(ValueError):
            inner()

    tracer.wrap("outer", catch)()
    assert tracer.self_ns == {"outer": 1, "inner": 3}


def test_install_rebinds_every_imported_name():
    home = types.ModuleType("torsiontraj._bench_home")
    user = types.ModuleType("torsiontraj._bench_user")

    def kernel(x):
        return x + 1

    home.kernel = kernel
    user.kernel = kernel
    user.call = lambda x: user.kernel(x)
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    tracer = Tracer()
    try:
        tracer.install([("home.kernel", home.__name__, "kernel", None, None)])
        assert user.call(1) == 2 and home.kernel(2) == 3
        assert tracer.calls["home.kernel"] == 2
        tracer.uninstall()
        assert user.kernel is kernel and home.kernel is kernel
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


def test_library_layers_are_traced_through_every_name():
    from torsiontraj import abgroup, intmat, trajectory
    from torsiontraj.trajectory import SingularityModel

    tracer = Tracer()
    tracer.install()
    try:
        assert abgroup.snf is intmat.snf and hasattr(abgroup.snf, "__wrapped__")
        assert hasattr(trajectory.coxeter_element, "__wrapped__")
        trajectory.trajectory_row(SingularityModel.ak(3))
    finally:
        tracer.uninstall()
    assert abgroup.snf is intmat.snf
    assert tracer.calls["monodromy.coxeter_element"] == 1
    assert tracer.calls["intmat.rat_inverse"] >= 1
    assert tracer.calls["intmat.snf"] >= 1
    assert tracer.calls["intmat.matmul"] == 3
    assert tracer.sizes["abgroup.from_orders.max_order_bits"] == 3
