import json
import math
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from blochdyn import (
    BlockSpec,
    MomentTrajectory,
    TruncatedOperator,
    WavePacket,
    apply_q,
    build_operator,
    check_ballistic_limit,
    check_derivative_identity,
    corollary_probe,
    dynamics,
    evolve,
    exponent_estimate,
    floquet,
    localization_diagnostic,
    moment_table,
    moment_trajectory,
    required_half_width,
    scalar_spec,
    transport_exponents,
)
from blochdyn.blockjacobi import CHEBYSHEV_TAIL, MAX_DENSE_DIM, chebyshev_order
from blochdyn.cli import main
from blochdyn.errors import (
    DimensionMismatch,
    NumericsError,
    QuadratureNotConverged,
    SizeLimitExceeded,
    SpecError,
)
from blochdyn.limitperiodic import perturbation_stability


def free_laplacian():
    return build_operator(scalar_spec([0.0]))


def period2(v):
    return build_operator(scalar_spec([v, -v]))


def bessel_series(n, x, terms=40):
    """J_n by direct series summation, independent of the evolution code."""
    n = abs(n)
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * (x / 2.0) ** (n + 2 * k) / (
            math.factorial(k) * math.factorial(k + n)
        )
    return total


# --- evolution ---------------------------------------------------------------


def test_evolve_t0_identity():
    J = free_laplacian()
    psi = WavePacket.delta_scalar(0, 1)
    [out] = evolve(J, psi, [0.0])
    assert reference.subtract(out, psi).norm() < 1e-14


def test_evolve_free_bessel_amplitude():
    J = free_laplacian()
    psi = WavePacket.delta_scalar(0, 1)
    [out] = evolve(J, psi, [0.5])
    expected = abs(bessel_series(1, 1.0))
    assert expected == pytest.approx(0.4400505857449335, abs=1e-12)
    assert abs(reference.block(out, 1)[0]) == pytest.approx(expected, abs=1e-12)


def test_evolve_unitary_and_reversible():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)) + 3 * np.eye(2)
    braw = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    b = 0.5 * (braw + np.conj(np.transpose(braw, (0, 2, 1))))
    J = build_operator(BlockSpec(m=2, q=2, a=a, b=b))
    psi = WavePacket(0, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    psi = reference.scale(1.0 / psi.norm(), psi)
    for t in (0.5, 1.7, 2.0):
        [pt] = evolve(J, psi, [t])
        assert abs(pt.norm() - 1.0) < 1e-10
        [back] = evolve(J, pt, [-t])
        assert reference.subtract(back, psi).norm() < 1e-10


def check_free_bessel(tmp_path, capsys, t):
    """psi(t)_n = (-i)^|n| J_|n|(2t) for delta_0 under the free Laplacian at
    every site of the default window, through the library and the CLI."""
    from scipy.special import jv

    J, psi = free_laplacian(), WavePacket.delta_scalar(0, 1)
    half = required_half_width(J, 0, t)
    assert 2 * half + 1 > MAX_DENSE_DIM
    [out] = evolve(J, psi, [t], trim=0.0)
    assert out.support() == (-half, half)
    n = np.abs(out.sites)
    exact = (-1j) ** n * jv(n, 2.0 * t)
    assert np.max(np.abs(out.coeffs[:, 0] - exact)) < 1e-12
    assert abs(out.norm() - 1.0) < 1e-12

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "operator": {"m": 1, "q": 1, "a": [[[1.0, 0.0]]], "b": [[[0.0, 0.0]]]},
        "state": {"delta_scalar": 0}, "times": [t]}))
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "evolve.csv").read_text().splitlines()[3:]
    sites = np.array([int(r.split(",")[1]) for r in rows])
    amps = np.array([complex(float(r.split(",")[3]), float(r.split(",")[4])) for r in rows])
    assert np.max(np.abs(amps - (-1j) ** np.abs(sites) * jv(np.abs(sites), 2.0 * t))) < 1e-12


def test_evolve_free_beyond_dense_ceiling(tmp_path, capsys):
    # the default window at t = 2500 is past the dense ceiling, so no window
    # eigenbasis can evolve it
    check_free_bessel(tmp_path, capsys, 2500.0)


def test_evolve_free_bessel_at_long_times(tmp_path, capsys):
    # at t = 1e4 the window holds about 4e4 sites: the Bloch route's
    # roundoff grows like eps s |t| and stays below the same bound
    check_free_bessel(tmp_path, capsys, 1e4)


def test_evolve_window_guards():
    # evolve sizes its own window: a time whose light cone passes the block
    # storage limit is refused before the window exists, and a packet must
    # share the operator's block dimension
    J = free_laplacian()
    with pytest.raises(SizeLimitExceeded):
        evolve(J, WavePacket.delta_scalar(0, 1), [1.0, 3e6])
    with pytest.raises(DimensionMismatch):
        evolve(J, WavePacket.delta_scalar(0, 2), [1.0])


def test_evolve_times_in_any_order():
    # unsorted, repeated, negative and zero times share one chained
    # recurrence, and each packet matches the lone evolution to its time up
    # to the certificate (k + 2) CHEBYSHEV_TAIL and the roundoff of the chain
    rng = np.random.default_rng(7)
    J = build_operator(random_spec(rng, 2, 3, False))
    psi = random_packet(rng, 2)
    times = [3.0, -2.0, 0.0, 3.0, 1.5, -2.0]
    out = evolve(J, psi, times, trim=0.0)
    assert len(out) == len(times)
    assert reference.subtract(out[2], psi).norm() < 1e-14
    assert np.array_equal(out[0].coeffs, out[3].coeffs)
    assert np.array_equal(out[1].coeffs, out[5].coeffs)
    for t, pt in zip(times, out):
        [lone] = evolve(J, psi, [t], trim=0.0)
        assert reference.subtract(pt, lone).norm() <= 1e-12


# --- moments -------------------------------------------------------------------


def spy_on_engines(monkeypatch, calls):
    """Record in calls every evolution step of either `_light_cone` engine:
    a Chebyshev propagation, or a sample drawn from the Bloch states."""
    def bloch_states(*args):
        calls.append(args)
        yield from ()

    monkeypatch.setattr(TruncatedOperator, "propagate", lambda self, *args: calls.append(args))
    monkeypatch.setattr(dynamics, "_bloch_states", bloch_states)


def test_moment_examples():
    assert reference.moment(WavePacket.delta_scalar(0, 1), 2.0) == 0.0
    assert reference.moment(WavePacket.delta_scalar(5, 1), 2.0) == 25.0
    psi = reference.scale(1 / np.sqrt(2), reference.add(WavePacket.delta_scalar(-1, 1),
                                                     WavePacket.delta_scalar(1, 1)))
    assert reference.moment(psi, 1.0) == pytest.approx(1.0)


def test_free_second_moment_bessel_identity():
    # sum n^2 J_n(2t)^2 = 2 t^2; compare the trajectory against the exact law
    # and against direct summation of the squared propagator amplitudes
    from scipy.special import jv

    J = free_laplacian()
    psi = WavePacket.delta_scalar(0, 1)
    times = [2.0, 5.0, 11.0]
    traj = moment_trajectory(J, psi, 2.0, times)
    assert len(traj.times) == len(times)
    for t, val in zip(traj.times, traj.values):
        assert val == pytest.approx(2.0 * t * t, rel=1e-8)
        ns = np.arange(-200, 201)
        oracle = float(np.sum(ns**2 * jv(ns, 2 * t) ** 2))
        assert val == pytest.approx(oracle, rel=1e-10)


def test_transport_exponents_free():
    est = transport_exponents(free_laplacian(), WavePacket.delta_scalar(0, 1), 2.0,
                              [12.5, 25.0, 50.0, 100.0, 200.0])
    assert 0.95 <= est.beta_minus_hat <= est.beta_plus_hat <= 1.05
    assert est.fit_window == (12.5, 200.0)
    assert est.residual < 0.05


def test_transport_exponents_period2():
    est = transport_exponents(period2(1.0), WavePacket.delta_scalar(0, 1), 2.0,
                              [12.5, 25.0, 50.0, 100.0, 200.0])
    assert 0.9 <= est.beta_minus_hat <= est.beta_plus_hat
    # finite-time slack over the ballistic ceiling stays tight
    assert est.beta_plus_hat <= 1.05


def test_exponent_estimate_needs_two_samples():
    traj = moment_trajectory(free_laplacian(), WavePacket.delta_scalar(0, 1), 2.0, [5.0])
    with pytest.raises(ValueError, match="two sample times") as exc:
        exponent_estimate(traj)
    assert type(exc.value) is SpecError


@pytest.mark.parametrize("times", [[10.0, 10.0, 20.0], [0.0, 10.0, 20.0], [-5.0, 10.0]])
def test_exponent_estimate_needs_positive_increasing_times(times):
    # a repeated time divides by a zero log spacing and a time of 0 takes
    # log 0; both are refused before the fit, not left to a NaN estimate or
    # a LAPACK error
    with pytest.raises(SpecError, match="positive and strictly increasing"):
        transport_exponents(free_laplacian(), WavePacket.delta_scalar(0, 1), 2.0, times)
    traj = MomentTrajectory(times=np.array([20.0, 10.0]), p=2.0, values=np.array([4.0, 1.0]))
    with pytest.raises(SpecError, match="positive and strictly increasing"):
        exponent_estimate(traj)


@pytest.mark.parametrize("times", [[0.0, 10.0, 3000.0], [3000.0, 10.0, 10.0], [5.0]])
def test_transport_exponents_refuses_times_before_evolving(monkeypatch, times):
    # the sorted times are checked before the light-cone evolution runs
    calls = []
    spy_on_engines(monkeypatch, calls)
    J = build_operator(scalar_spec([0.5, -1.0, 0.3]))
    with pytest.raises(SpecError):
        transport_exponents(J, WavePacket.delta_scalar(0, 1), 2.0, times)
    assert calls == []


def test_zero_packet_is_refused_before_evolving(monkeypatch):
    # every moment of the zero packet is 0, which has no logarithm: refused
    # with the times, before either engine runs, instead of NaN exponents
    calls = []
    spy_on_engines(monkeypatch, calls)
    with pytest.raises(SpecError, match="zero packet"):
        transport_exponents(free_laplacian(), WavePacket.zero(1), 2.0, [5.0, 10.0])
    assert calls == []
    traj = MomentTrajectory(times=np.array([5.0, 10.0]), p=2.0, values=np.array([0.0, 1.0]))
    with pytest.raises(SpecError, match="positive"):
        exponent_estimate(traj)


def test_moment_weights_that_overflow_are_refused_before_evolving(monkeypatch):
    # N^p on the window of t = 400 overflows a float at p = 200; the moments
    # would be NaN, so the table is refused before either engine runs
    calls = []
    spy_on_engines(monkeypatch, calls)
    with pytest.raises(NumericsError, match="overflow"):
        moment_table(free_laplacian(), [WavePacket.delta_scalar(0, 1)], 200.0, [25.0, 400.0])
    assert calls == []


def test_moment_trajectory_chains_samples(monkeypatch):
    # on the Chebyshev route: one propagation per sample, each from the
    # previous sample's time, on the window of the largest time
    # (2 half + 1 block sites)
    J, psi = period2(1.0), WavePacket.delta_scalar(0, 1)
    monkeypatch.setattr(dynamics, "_use_bloch", lambda *args: False)
    steps = []
    propagate = TruncatedOperator.propagate

    def recording_propagate(self, vec, t):
        steps.append((len(self.diag_blocks), t))
        return propagate(self, vec, t)

    monkeypatch.setattr(TruncatedOperator, "propagate", recording_propagate)
    traj = moment_trajectory(J, psi, 2.0, [20.0, 5.0, 10.0])
    half = required_half_width(J, 0, 20.0)
    rows = 2 * half + 1
    assert steps == [(rows, 5.0), (rows, 5.0), (rows, 10.0)]
    monkeypatch.undo()
    for t, val in zip(traj.times, traj.values):
        assert val == pytest.approx(reference.moment(evolve(J, psi, [t])[0], 2.0), rel=1e-12)


def test_constant_diagonal_matches_free_moments():
    # a constant diagonal shift only changes the global phase
    times = [1.0, 3.0, 7.0]
    free_traj = moment_trajectory(free_laplacian(), WavePacket.delta_scalar(0, 1), 2.0, times)
    shifted = build_operator(scalar_spec([4.2]))
    shift_traj = moment_trajectory(shifted, WavePacket.delta_scalar(0, 1), 2.0, times)
    assert np.allclose(free_traj.values, shift_traj.values, rtol=1e-9)


def lone_moments(J, psi, p, times):
    """The moments of one packet at the sorted times, chained by
    TruncatedOperator.propagate on that packet's own light-cone window: the
    evolution moment_table batches."""
    times = sorted(times)
    trunc = J.truncate(required_half_width(J, psi.support_radius(), max(map(abs, times))))
    weights = np.abs(trunc.position_diagonal) ** p
    vec, values, t_prev = trunc.embed(psi), [], 0.0
    for t in times:
        vec = trunc.propagate(vec, t - t_prev)
        values.append(float(weights @ np.abs(vec) ** 2))
        t_prev = t
    return np.array(values)


def random_packet(rng, m):
    size = int(rng.integers(1, 4))
    psi = WavePacket(int(rng.integers(-3, 3)),
                     rng.standard_normal((size, m)) + 1j * rng.standard_normal((size, m)))
    return reference.scale(1.0 / psi.norm(), psi)


@settings(max_examples=30, deadline=None)
@given(m=st.sampled_from([1, 2]), q=st.integers(1, 4), packets=st.integers(1, 3),
       times=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_moment_table_matches_separate_evolutions(m, q, packets, times, seed):
    # on the Chebyshev route the packets stay decoupled columns: every entry
    # is the lone evolution up to roundoff (the batch sizes the window by the
    # widest packet), and moment_trajectory, the table of one packet, is that
    # evolution bit for bit
    rng = np.random.default_rng(seed)
    J = build_operator(random_spec(rng, m, q, bool(rng.integers(2))))
    psis = [random_packet(rng, m) for _ in range(packets)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_use_bloch", lambda *args: False)
        table = moment_table(J, psis, 2.0, times)
        assert table.shape == (len(times), len(psis))
        order = np.argsort(times)
        for j, psi in enumerate(psis):
            lone = lone_moments(J, psi, 2.0, times)
            # relative to the trajectory's largest moment: a moment near
            # zero (the packet back at the origin) is roundoff on both sides
            assert np.allclose(table[order, j], lone, rtol=0.0, atol=1e-12 * lone.max())
            assert np.array_equal(moment_trajectory(J, psi, 2.0, times).values, lone)


def light_cone_states(J, psis, times, bloch):
    """The window states of `_light_cone` at the sorted distinct times, on
    the route `bloch` names."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_use_bloch", lambda *args: bloch)
        trunc, _, states = dynamics._light_cone(J, psis, times)
        return trunc, [state for _, state in states]


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([1, 2]), q=st.integers(1, 4), packets=st.integers(1, 3),
       times=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_bloch_route_matches_chebyshev(m, q, packets, times, seed):
    # both routes return the infinite-chain evolution on the window to within
    # 2 CHEBYSHEV_TAIL ||psi|| at each sample, up to roundoff of order
    # eps s |t|, so every window entry agrees to 1e-12 ||psi||
    rng = np.random.default_rng(seed)
    J = build_operator(random_spec(rng, m, q, bool(rng.integers(2))))
    psis = [random_packet(rng, m) for _ in range(packets)]
    _, bloch = light_cone_states(J, psis, times, True)
    _, chebyshev = light_cone_states(J, psis, times, False)
    assert len(bloch) == len(chebyshev) == len(set(times))
    for b, c in zip(bloch, chebyshev):
        assert b.shape == c.shape
        # every packet is normalized
        assert np.max(np.abs(b - c)) <= 1e-12


def test_light_cone_route_follows_the_memory_rule():
    # the light-cone exponents config (q = 2, times to 400) takes the Bloch
    # route; a q = 1024 operator at a short time keeps the Chebyshev route,
    # whose window state is far smaller than one 1024 x 1024 eigenbasis
    psi = WavePacket.delta_scalar(0, 1)
    times = np.array([25.0, 50.0, 100.0, 200.0, 400.0])
    J = period2(1.0)
    half = dynamics._light_cone_half(J, 0, times, 1)
    assert dynamics._use_bloch(J, half, 1)
    wide = build_operator(scalar_spec(np.linspace(-1.0, 1.0, 1024)))
    half = dynamics._light_cone_half(wide, 0, [2.0], 1)
    assert not dynamics._use_bloch(wide, half, 1)


def test_large_q_long_time_stays_on_chebyshev():
    # q = 128, m = 2, four packets at t = 3000: the scan is allowed, but its
    # eigenvectors (1024 fibers of 256 x 256, about 1 GB) would be about 90
    # times the Chebyshev state, so the Chebyshev route runs
    J = build_operator(random_spec(np.random.default_rng(0), 2, 128, True))
    half = dynamics._light_cone_half(J, 0, [3000.0], 4)
    G = dynamics._bloch_grid(J, half)
    assert G * 256**2 >= 2**26
    floquet._scan_slices(J, G)
    assert G * 256**2 > 64 * (2 * half + 1) * 2 * 4
    assert not dynamics._use_bloch(J, half, 4)


def test_negative_moment_order_is_refused_before_evolving(monkeypatch):
    # |x|^p is infinite at the origin for p < 0
    calls = []
    spy_on_engines(monkeypatch, calls)
    for p in (-1.0, float("nan")):
        with pytest.raises(SpecError, match="moment order"):
            moment_table(free_laplacian(), [WavePacket.delta_scalar(0, 1)], p, [0.0, 5.0])
    assert calls == []


def test_moment_table_refusals():
    J = build_operator(random_spec(np.random.default_rng(0), 2, 1, True))
    with pytest.raises(DimensionMismatch):
        moment_table(J, [WavePacket.delta_scalar(0, 1)], 2.0, [1.0])


@pytest.mark.parametrize("times", [[], [1.0, float("nan")], [float("inf")]])
def test_light_cone_refuses_empty_or_nonfinite_times(monkeypatch, times):
    # refused before anything else: no window is sized and nothing evolves,
    # and even a packet of the wrong block dimension is not looked at
    calls = []
    spy_on_engines(monkeypatch, calls)
    J, psi = free_laplacian(), WavePacket.delta_scalar(0, 1)
    for run in (lambda: evolve(J, psi, times),
                lambda: moment_table(J, [psi], 2.0, times),
                lambda: dynamics._light_cone(J, [WavePacket.delta_scalar(0, 2)], times)):
        with pytest.raises(SpecError, match="finite times"):
            run()
    assert calls == []


# --- ballistic limit -------------------------------------------------------------


def test_ballistic_limit_free():
    errs = check_ballistic_limit(free_laplacian(), WavePacket.delta_scalar(0, 1),
                                 [50.0, 100.0], grid_size=64)
    assert errs[-1] < 0.05


def test_ballistic_limit_zero_packet():
    errs = check_ballistic_limit(free_laplacian(), WavePacket.zero(1), [5.0, 10.0],
                                 grid_size=32)
    assert np.all(errs == 0.0)


@pytest.mark.parametrize("times", [[], [np.nan, 5.0], [np.inf], [0.0, 5.0], [-1.0, 5.0]])
def test_ballistic_limit_refuses_bad_times_before_apply_q(monkeypatch, times):
    calls = []
    monkeypatch.setattr(dynamics, "apply_q", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(SpecError, match="finite positive times"):
        check_ballistic_limit(period2(1.0), WavePacket.delta_scalar(0, 1), times)
    assert calls == []


def test_ballistic_limit_period2_decreasing():
    errs = check_ballistic_limit(period2(1.0), WavePacket.delta_scalar(0, 1),
                                 [50.0, 200.0], grid_size=512)
    assert errs[1] < errs[0]


def test_ballistic_limit_window_holds_q_psi(windows):
    # psi and the trimmed Q psi (support [-57, 57] here, past the light-cone
    # window [-44, 44] of delta_0 at t = 5) evolve as two columns, so the one
    # window is the light cone of the wider support
    built, _ = windows
    J, psi = period2(1.0), WavePacket.delta_scalar(0, 1)
    for times, grid_size in (([2.5, 5.0], 512), ([50.0, 100.0, 150.0, 200.0], 1024)):
        errs = check_ballistic_limit(J, psi, times, grid_size=grid_size)
        assert errs.shape == (len(times),) and np.all(np.isfinite(errs))
        radius = apply_q(J, psi, grid_size=grid_size).packet.support_radius()
        assert radius > psi.support_radius()
        half = required_half_width(J, radius, times[-1])
        assert built[-1].window == (-half, half)


@settings(max_examples=30, deadline=None)
@given(m=st.sampled_from([1, 2]), q=st.integers(1, 3), real=st.booleans(),
       times=st.lists(st.floats(0.25, 8.0), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_forward_ballistic_errors_match_the_pull_back(m, q, real, times, seed):
    # check_ballistic_limit evolves psi and Q psi forward and takes
    # ||X psi(t) / t - exp(-itJ) Q psi||; the pull-back
    # ||exp(+itJ) X exp(-itJ) psi / t - Q psi|| is the same number because
    # exp(-itJ) is unitary. The reference runs both legs on a window wide
    # enough for the pair, so both routes carry the light-cone certificate
    # and differ by the Chebyshev tails and roundoff only. Per unit norm a
    # propagation is off by at most tol = CHEBYSHEV_TAIL + (K + 1)^2.5
    # (3m + 2) eps (the bound of test_propagate_is_unitary_under_both_backends);
    # the routes take three propagations, of psi, X psi(t) / t and Q psi, of
    # norms at most ||psi||, N ||psi|| / t and ||Q psi||, N the reference's
    # half-width, which bounds |X| on both windows.
    rng = np.random.default_rng(seed)
    J = build_operator(random_spec(rng, m, q, real))
    psi = random_packet(rng, m)
    try:
        q_psi = apply_q(J, psi, grid_size=1024).packet
    except QuadratureNotConverged:
        assume(False)
    errs = check_ballistic_limit(J, psi, times, grid_size=1024)
    t_max = max(times)
    K = chebyshev_order(J.norm_bound * t_max)
    radius = max(psi.support_radius(), q_psi.support_radius())
    half = required_half_width(J, radius + K, t_max)
    trunc = J.truncate(half)
    vec, qvec, x = trunc.embed(psi), trunc.embed(q_psi), trunc.position_diagonal
    tol = CHEBYSHEV_TAIL + (K + 1) ** 2.5 * (3 * m + 2) * np.finfo(float).eps
    for t, err in zip(sorted(times), errs):
        pulled = trunc.propagate(x * trunc.propagate(vec, t), -t)
        ref = np.linalg.norm(pulled / t - qvec)
        assert abs(err - ref) <= tol * ((1.0 + 2.0 * half / t) * psi.norm() + q_psi.norm())


def test_infinite_chain_evolutions_run_forward_in_sorted_steps(monkeypatch):
    # on the Chebyshev route, ballistic-check and corollary-probe chain their
    # sorted times from t = 0 on one recurrence: no step runs backward, the
    # steps are the differences of the sorted distinct times, one
    # propagation per sample for all columns
    monkeypatch.setattr(dynamics, "_use_bloch", lambda *args: False)
    steps = []
    propagate = TruncatedOperator.propagate

    def recording_propagate(self, vec, t):
        steps.append(t)
        return propagate(self, vec, t)

    monkeypatch.setattr(TruncatedOperator, "propagate", recording_propagate)
    check_ballistic_limit(period2(1.0), WavePacket.delta_scalar(0, 1), [20.0, 5.0, 10.0, 5.0],
                          grid_size=512)
    assert steps == [5.0, 5.0, 10.0]
    steps.clear()
    corollary_probe(free_laplacian(), 0.5, [10.0, 5.0, 20.0], 2, grid_size=64)
    assert steps == [5.0, 5.0, 10.0]


# --- derivative identity ----------------------------------------------------------


def test_derivative_identity_t0():
    assert check_derivative_identity(free_laplacian(), WavePacket.delta_scalar(0, 1),
                                     0.0, 64) == 0.0


def test_derivative_identity_free():
    res = check_derivative_identity(free_laplacian(), WavePacket.delta_scalar(0, 1),
                                    1.0, 256)
    assert res < 1e-8


def test_derivative_identity_simpson_order():
    J = period2(1.0)
    psi = WavePacket.delta_scalar(0, 1)
    r = [check_derivative_identity(J, psi, 1.0, n) for n in (32, 64, 128)]
    assert r[0] / r[1] > 10.0
    assert r[1] / r[2] > 10.0


def test_derivative_identity_catches_a_wrong_current(monkeypatch):
    # A is assembled from the window matrix of J, not from its eigenbasis,
    # where the identity would hold by construction: a current 1% off is
    # caught. The per-node reference cannot see this, as both routes use
    # the same A
    J, psi = period2(1.0), WavePacket.delta_scalar(0, 1)
    assert check_derivative_identity(J, psi, 5.0, 256) < 1e-6
    commutator = dynamics.position_commutator
    monkeypatch.setattr(dynamics, "position_commutator",
                        lambda h, x: 1.01 * commutator(h, x))
    assert check_derivative_identity(J, psi, 5.0, 256) > 1e-3


def traced_peak(fn, *args):
    """fn(*args) and the peak of its traced allocations, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_dense_diagnostics_stay_real_on_a_real_window():
    # on a real window of 1013 rows no complex copy of the window exists:
    # the matrix is real and not cached, U^* R U is formed by real products,
    # and every product of U with a complex block is one real product. Peaks
    # in units of the window's real dense size, 8 dim^2 bytes; a complex,
    # cached window matrix reads 9.0 and 3.6
    J = build_operator(scalar_spec([0.5, -1.0, 0.3]))
    half = required_half_width(J, 1, 140.0)
    dense = 8.0 * (2 * half + 1) ** 2
    assert 2 * half + 1 == 1013
    res, peak = traced_peak(check_derivative_identity, J, WavePacket.delta_scalar(0, 1),
                            140.0, 64)
    assert np.isfinite(res)
    assert peak <= 4.5 * dense
    trunc = J.truncate(half)
    t_grid = np.arange(0.0, 40.0, dynamics.localization_step(J))
    _, peak = traced_peak(localization_diagnostic, trunc, [(0, 4), (0, 8), (-10, 20)], t_grid)
    assert peak <= 2.5 * dense


def derivative_residual_per_node(J, psi, T, quad_steps):
    """Reference for check_derivative_identity: the same Simpson nodes and
    weights, each node evaluated by two spectral propagations and one dense
    matvec, propagate(A propagate(psi, t), -t), where propagate applies
    exp(-itJ) through the window's eigensystem."""
    steps = quad_steps + quad_steps % 2
    trunc = J.truncate(required_half_width(J, psi.support_radius() + 1, T))
    w, u = trunc.eigensystem

    def propagate(v, t):
        return u @ (np.exp(-1j * t * w) * (u.conj().T @ v))

    vec = trunc.embed(psi)
    x = trunc.position_diagonal
    lhs = propagate(x * propagate(vec, T), -T) - x * vec
    a_mat = 1j * trunc.matrix * (x[None, :] - x[:, None])
    ts = np.linspace(0.0, T, steps + 1)
    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (T / steps) / 3.0
    acc = np.zeros_like(vec)
    for wgt, t in zip(weights, ts):
        acc += wgt * propagate(a_mat @ propagate(vec, t), -t)
    return float(np.linalg.norm(lhs - acc))


def random_spec(rng, m, q, real):
    a = rng.standard_normal((q, m, m))
    b = rng.standard_normal((q, m, m))
    if not real:
        a = a + 1j * rng.standard_normal((q, m, m))
        b = b + 1j * rng.standard_normal((q, m, m))
    b = 0.5 * (b + np.conj(np.transpose(b, (0, 2, 1))))
    a = a + 3.0 * np.eye(m)  # keep the off-diagonal blocks well invertible
    return BlockSpec(m=m, q=q, a=a, b=b)


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([1, 2]), q=st.integers(1, 3), real=st.booleans(),
       T=st.floats(0.1, 5.0), quad_steps=st.integers(2, 64),
       seed=st.integers(0, 2**32 - 1))
def test_derivative_identity_matches_per_node_loop(m, q, real, T, quad_steps, seed):
    rng = np.random.default_rng(seed)
    J = build_operator(random_spec(rng, m, q, real))
    psi = WavePacket(-1, rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m)))
    psi = reference.scale(1.0 / psi.norm(), psi)
    ref = derivative_residual_per_node(J, psi, T, quad_steps)
    assert abs(check_derivative_identity(J, psi, T, quad_steps) - ref) <= 1e-13 + 1e-10 * ref


@settings(max_examples=30, deadline=None)
@given(m=st.sampled_from([1, 2]), q=st.integers(1, 3), real=st.booleans(),
       t=st.floats(-20.0, 20.0), seed=st.integers(0, 2**32 - 1))
def test_default_window_matches_double_window(m, q, real, t, seed):
    # the light-cone certificate: on the required_half_width window the
    # Chebyshev recurrence returns the infinite-chain evolution to
    # 2 CHEBYSHEV_TAIL, so a window twice as wide cannot change the result
    rng = np.random.default_rng(seed)
    J = build_operator(random_spec(rng, m, q, real))
    psi = WavePacket(-1, rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m)))
    psi = reference.scale(1.0 / psi.norm(), psi)
    half = required_half_width(J, psi.support_radius(), t)
    out, wide = (trunc.extract(trunc.propagate(trunc.embed(psi), t))
                 for trunc in (J.truncate(half), J.truncate(2 * half)))
    assert reference.subtract(out, wide).norm() <= 1e-12


@pytest.mark.parametrize("quad_steps", [64, 1024])
def test_derivative_identity_work_count(monkeypatch, quad_steps):
    # one window eigensolve however many Simpson nodes (1024 steps span
    # several node chunks); X(T) psi is formed in that eigenbasis, so no
    # propagation runs, well inside the bound asserted below
    J, psi = period2(1.0), WavePacket.delta_scalar(0, 1)
    ref = derivative_residual_per_node(J, psi, 1.0, quad_steps)
    solves, propagations = [], []
    eigh, propagate = np.linalg.eigh, TruncatedOperator.propagate

    def counting_eigh(a, *args, **kwargs):
        solves.append(a.shape)
        return eigh(a, *args, **kwargs)

    def counting_propagate(self, vec, t):
        propagations.append(t)
        return propagate(self, vec, t)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(TruncatedOperator, "propagate", counting_propagate)
    res = check_derivative_identity(J, psi, 1.0, quad_steps)
    assert abs(res - ref) <= 1e-13 + 1e-10 * ref
    assert len(solves) == 1
    assert len(propagations) <= 2


def test_derivative_identity_memory_flat_in_quad_steps():
    # the nodes are processed in fixed chunks, so 16x the nodes must not
    # raise the peak of traced allocations (here about the 401-row window's
    # dense matrices: the packet at site 178 plus the light cone of T = 1
    # gives the half-width 200)
    J, psi = period2(1.0), WavePacket.delta_scalar(178, 1)
    assert required_half_width(J, psi.support_radius() + 1, 1.0) == 200
    check_derivative_identity(J, psi, 1.0, 256)
    peaks = []
    for quad_steps in (256, 4096):
        tracemalloc.start()
        try:
            check_derivative_identity(J, psi, 1.0, quad_steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


# --- light-cone mass probe ----------------------------------------------------------


def test_corollary_probe_free():
    result = corollary_probe(free_laplacian(), 0.2, [20.0, 40.0, 60.0], 0, grid_size=64)
    assert result.c_tilde > 0
    assert result.all_ok
    for rec in result.records:
        assert rec.mass > 0
        assert abs(rec.k_star) <= 0
        assert 1.8 * rec.time <= abs(rec.n_star) <= 2.0 * rec.time


def test_corollary_probe_pick_is_route_stable():
    # time reversal and the period make mirror (n, k) pairs carry equal
    # masses up to roundoff, which differs between the routes; the pick
    # within 1e-9 relative of the largest is the same on both
    J = build_operator(scalar_spec([-0.6726227149984079, -0.6463229813165063, 1.5,
                                    -0.4155350650396977, -1.232868912447508]))
    picks = []
    for bloch in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_use_bloch", lambda *args: bloch)
            result = corollary_probe(J, 0.2, [20.0, 40.0, 80.0], 10)
        picks.append([(r.n_star, r.k_star) for r in result.records])
    assert picks[0] == picks[1]
    assert picks[0][1] == (-52, -7)


def test_corollary_probe_degenerate_shell():
    # epsilon = q_norm covers the whole cone, trivially satisfied
    result = corollary_probe(free_laplacian(), 2.0, [10.0, 20.0], 0, grid_size=64)
    assert result.all_ok


@pytest.mark.parametrize("times", [[0.0, 10.0], [-5.0, 10.0], [], [float("nan"), 10.0]])
def test_corollary_probe_refuses_nonpositive_times_before_running(monkeypatch, times):
    # a time <= 0 has no shell and no 1/T fit; it is refused before the
    # band maximum and the light cone, as are no times and a NaN time
    def unreachable(*args, **kwargs):
        raise AssertionError("ran before the times were checked")

    monkeypatch.setattr(dynamics, "q_norm", unreachable)
    monkeypatch.setattr(dynamics, "_light_cone", unreachable)
    with pytest.raises(SpecError):
        corollary_probe(free_laplacian(), 0.2, times, 2)


# --- localization diagnostic ---------------------------------------------------------


def test_localization_free_not_localized():
    J = free_laplacian()
    trunc = J.truncate(80)
    pairs = [(0, d) for d in range(4, 41, 4)]
    t_grid = np.arange(0.0, 25.0, 0.3)
    rep = localization_diagnostic(trunc, pairs, t_grid)
    assert not rep.localized
    assert rep.slope > -0.05


def test_localization_periodic_not_localized():
    J = period2(1.0)
    trunc = J.truncate(80)
    pairs = [(0, d) for d in range(4, 41, 4)]
    t_grid = np.arange(0.0, 25.0, 0.2)
    rep = localization_diagnostic(trunc, pairs, t_grid)
    assert not rep.localized


def test_localization_strong_disorder():
    rng = np.random.default_rng(12)
    half = 60
    pot = rng.uniform(-8.0, 8.0, 2 * half + 1)
    J = build_operator(scalar_spec(pot))
    trunc = J.truncate(half)
    pairs = [(0, d) for d in range(2, 25, 2)]
    t_grid = np.arange(0.0, 20.0, 0.05)
    rep = localization_diagnostic(trunc, pairs, t_grid)
    assert rep.localized
    assert rep.decay_rate > 0.1


def test_localization_phase_memory_is_bounded(monkeypatch):
    # 50000 samples on a 101-row window are 5.05e6 phase entries (81 MB of
    # complex numbers at once); formed in chunks, the call stays small, and
    # the sup over time is the max over chunks
    trunc = free_laplacian().truncate(50)
    pairs = [(0, 4), (0, 8), (-10, 20)]
    t_grid = np.arange(50000) * 0.01
    tracemalloc.start()
    try:
        rep = localization_diagnostic(trunc, pairs, t_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    monkeypatch.setattr(dynamics, "PHASE_CHUNK", 1000)
    fine = localization_diagnostic(trunc, pairs, t_grid)
    assert np.allclose(fine.sup_amplitudes, rep.sup_amplitudes, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("pairs", [[(0, 4)], [(0, 4), (-2, 2)], [(3, 0), (0, 3), (1, 4)]])
def test_localization_needs_two_distances(pairs):
    # one distance leaves the decay fit without a slope: on the free
    # Laplacian it read "localized" with R^2 = 1 for one pair and R^2 = -1
    # for two pairs at one distance; refused before the eigensolve
    trunc = free_laplacian().truncate(30)
    with pytest.raises(SpecError, match="two or more distances"):
        localization_diagnostic(trunc, pairs, np.arange(0.0, 10.0, 0.1))
    assert "eigensystem" not in trunc.__dict__


def test_localization_grid_guard():
    J = free_laplacian()
    trunc = J.truncate(30)
    with pytest.raises(ValueError):
        localization_diagnostic(trunc, [(0, 2)], np.arange(0.0, 10.0, 2.0))


# --- backend choice ----------------------------------------------------------------


@pytest.fixture
def windows(monkeypatch):
    """(windows built, windows diagonalized, once per eigensolve) during a test."""
    built, solved = [], []
    init = TruncatedOperator.__init__
    solve = TruncatedOperator.eigensystem.func

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    def counting_solve(self):
        solved.append(self)
        return solve(self)

    counted = cached_property(counting_solve)
    counted.__set_name__(TruncatedOperator, "eigensystem")
    monkeypatch.setattr(TruncatedOperator, "__init__", recording_init)
    monkeypatch.setattr(TruncatedOperator, "eigensystem", counted)
    return built, solved


def test_single_time_evolutions_never_diagonalize(windows, tmp_path, capsys):
    built, solved = windows
    psi = WavePacket.delta_scalar(0, 1)
    moment_trajectory(period2(1.0), psi, 2.0, [5.0, 10.0])
    check_ballistic_limit(period2(1.0), psi, [20.0, 40.0], grid_size=512)
    perturbation_stability([0.5, -0.5], [0.5, -0.4], psi, 5.0, 2.0, 1)
    corollary_probe(free_laplacian(), 0.5, [5.0, 10.0], 2, grid_size=64)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "operator": {"m": 1, "q": 1, "a": [[[1.0, 0.0]]], "b": [[[0.0, 0.0]]]},
        "state": {"delta_scalar": 0}, "times": [3.0, 6.0]}))
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    # one window per operator: perturbation_stability builds two
    assert len(built) == 6
    assert solved == []
    assert not any("eigensystem" in w.__dict__ for w in built)


def test_many_time_diagnostics_diagonalize_once(windows):
    built, solved = windows
    check_derivative_identity(period2(1.0), WavePacket.delta_scalar(0, 1), 1.0, 64)
    assert len(built) == 1 and solved == built
    trunc = period2(1.0).truncate(30)
    localization_diagnostic(trunc, [(0, 4), (0, 8)], np.arange(0.0, 5.0, 0.1))
    assert solved == [built[0], trunc]
