"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
enforces the stated tolerance and runtime budget.
"""

import time

import numpy as np
from scipy.optimize import brentq

from gptkit import (
    D2Params,
    KrausSet,
    SurfaceKind,
    a_matrix,
    bloch_coordinates,
    build_canonical_frame,
    c_bounds,
    check_measurement_update,
    classical_theory,
    classify_surface,
    composite_from_density,
    continuity_probe,
    dof_count_check,
    fit_power_law,
    gram_matrix,
    is_completely_multiplicative,
    is_completely_positive,
    kraus_to_superoperator,
    local_transform,
    mix,
    p_from_density,
    quantum_theory,
    r_from_p,
    simulate,
    z_from_kraus,
    Experiment,
    run_report,
)
from conftest import haar_state, random_density, random_kraus, random_measurement_operator

QT2 = quantum_theory(2)

DHALFS = np.array(
    [
        [1.0, 0.0, 0.5, 0.5],
        [0.0, 1.0, 0.5, 0.5],
        [0.5, 0.5, 1.0, 0.5],
        [0.5, 0.5, 0.5, 1.0],
    ]
)

H, Q = 0.5, 0.25
D3_PAPER = np.array(
    [
        [1, 0, 0, H, H, H, H, 0, 0],
        [0, 1, 0, H, H, 0, 0, H, H],
        [0, 0, 1, 0, 0, H, H, H, H],
        [H, H, 0, 1, H, Q, Q, Q, Q],
        [H, H, 0, H, 1, Q, Q, Q, Q],
        [H, 0, H, Q, Q, 1, H, Q, Q],
        [H, 0, H, Q, Q, H, 1, Q, Q],
        [0, H, H, Q, Q, Q, Q, 1, H],
        [0, H, H, Q, Q, Q, Q, H, 1],
    ],
    dtype=float,
)


def report_line(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status} ({detail})")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_d_matrix_reproduction():
    start = time.monotonic()
    dev2 = np.abs(gram_matrix(build_canonical_frame(2)) - DHALFS).max()
    dev3 = np.abs(gram_matrix(build_canonical_frame(3)) - D3_PAPER).max()
    elapsed = time.monotonic() - start
    ok = dev2 <= 1e-12 and dev3 <= 1e-12 and elapsed < 1.0
    report_line(
        1,
        "D-matrix reproduction",
        ok,
        f"dev N=2 {dev2:.1e}, dev N=3 {dev3:.1e}, {elapsed:.2f}s",
    )


def test_criterion_02_c_bounds_and_det_sign():
    start = time.monotonic()
    lo, hi = c_bounds(0.5, 0.5)
    bounds_ok = abs(lo - 0.0) <= 1e-10 and abs(hi - 1.0) <= 1e-10

    def det_at(c: float) -> float:
        # template rebuilt locally so the scan does not depend on d2_assemble
        d = np.array(
            [
                [1.0, 0.0, 0.5, 0.5],
                [0.0, 1.0, 0.5, 0.5],
                [0.5, 0.5, 1.0, c],
                [0.5, 0.5, c, 1.0],
            ]
        )
        return float(np.linalg.det(d))

    grid = np.linspace(-0.5, 1.5, 1000)
    dets = np.array([det_at(c) for c in grid])
    signs = np.sign(dets)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    roots = sorted(brentq(det_at, grid[i], grid[i + 1], xtol=1e-14) for i in flips)
    scan_ok = (
        len(roots) == 2
        and abs(roots[0] - lo) <= 1e-10
        and abs(roots[1] - hi) <= 1e-10
        and all(det_at(c) > 0 for c in np.linspace(lo + 1e-3, hi - 1e-3, 50))
    )
    elapsed = time.monotonic() - start
    ok = bounds_ok and scan_ok and elapsed < 1.0
    report_line(
        2,
        "c-bounds and det sign change",
        ok,
        f"c_-={lo:.2e}, c_+={hi:.6f}, roots={[f'{r:.2e}' for r in roots]}, {elapsed:.2f}s",
    )


def test_criterion_03_bloch_sphere():
    start = time.monotonic()
    rng = np.random.default_rng(3)
    a_half = a_matrix(D2Params(0.5, 0.5, 0.5))
    worst = 0.0
    for _ in range(100):
        psi = haar_state(rng, 2)
        r = r_from_p(p_from_density(np.outer(psi, psi.conj()), QT2.frame), QT2.d)
        mu, v = bloch_coordinates(r)
        worst = max(worst, abs(mu - 1.0), abs(float(v @ a_half @ v) - 0.5))

    grid = np.linspace(0.01, 0.99, 50)
    all_ellipsoid = True
    for a in grid:
        for b in grid:
            lo, hi = c_bounds(float(a), float(b))
            if hi - lo <= 1e-9:
                continue
            for frac in (0.25, 0.5, 0.75):
                c = lo + frac * (hi - lo)
                kind = classify_surface(a_matrix(D2Params(float(a), float(b), float(c)))).kind
                all_ellipsoid = all_ellipsoid and kind is SurfaceKind.ELLIPSOID
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and all_ellipsoid and elapsed < 5.0
    report_line(
        3,
        "Bloch sphere",
        ok,
        f"pure-state dev {worst:.1e}, interior grid ellipsoidal={all_ellipsoid}, {elapsed:.2f}s",
    )


def test_criterion_04_round_trip_and_trace_formula():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    worst_rt = 0.0
    for n in (2, 3, 4):
        theory = quantum_theory(n)
        for _ in range(100):
            rho = random_density(rng, n, trace=rng.random())
            r = r_from_p(p_from_density(rho, theory.frame), theory.d)
            back = np.einsum("k,kij->ij", r, theory.frame.projectors)
            worst_rt = max(worst_rt, float(np.abs(back - rho).max()))

    worst_tr = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        theory = quantum_theory(n)
        rho = random_density(rng, n, trace=rng.random())
        op = random_measurement_operator(rng, n)
        r_s = r_from_p(p_from_density(rho, theory.frame), theory.d)
        r_m = r_from_p(p_from_density(op, theory.frame), theory.d)
        lhs = float(r_m @ theory.d @ r_s)
        rhs = float(np.trace(op @ rho).real)
        worst_tr = max(worst_tr, abs(lhs - rhs))
    elapsed = time.monotonic() - start
    ok = worst_rt <= 1e-10 and worst_tr <= 1e-12 and elapsed < 10.0
    report_line(
        4,
        "round-trip fidelity and trace formula",
        ok,
        f"round-trip dev {worst_rt:.1e}, trace dev {worst_tr:.1e}, {elapsed:.2f}s",
    )


def test_criterion_05_transformation_correspondence():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    worst = 0.0
    choi_ok = True
    for n in (2, 3):
        theory = quantum_theory(n)
        states = [random_density(rng, n, trace=rng.random()) for _ in range(50)]
        ps = np.stack([p_from_density(rho, theory.frame) for rho in states])
        for _ in range(50):
            kraus = KrausSet(random_kraus(rng, n, terms=int(rng.integers(1, 4))))
            z = z_from_kraus(kraus, theory)
            choi_ok = choi_ok and is_completely_positive(kraus_to_superoperator(kraus))
            for rho, p in zip(states, ps):
                lhs = p_from_density(kraus.apply(rho), theory.frame)
                worst = max(worst, float(np.abs(lhs - z.z @ p).max()))

    transpose = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            transpose[i + 2 * j, j + 2 * i] = 1.0
    rejects_transpose = not is_completely_positive(transpose)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and choi_ok and rejects_transpose and elapsed < 30.0
    report_line(
        5,
        "transformation correspondence",
        ok,
        f"vector/operator dev {worst:.1e}, Choi accepts Kraus={choi_ok}, "
        f"rejects transpose={rejects_transpose}, {elapsed:.2f}s",
    )


def test_criterion_06_measurement_update():
    p1 = np.diag([1.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 1.0]).astype(complex)
    branches = [
        (KrausSet(p1), np.array([1.0, 0.0, 0.0, 0.0])),
        (KrausSet(p2), np.array([0.0, 1.0, 0.0, 0.0])),
    ]
    rng = np.random.default_rng(6)
    witnesses = [
        QT2.basis_p[0],
        QT2.basis_p[1],
        p_from_density(np.eye(2, dtype=complex) / 2.0, QT2.frame),
        p_from_density(random_density(rng, 2), QT2.frame),
    ]
    report = check_measurement_update(branches, QT2, witnesses)
    worst = max(
        report.branch_normalization, report.identity_preservation, report.kraus_completeness
    )
    ok = report.passed and worst <= 1e-12
    report_line(6, "measurement update", ok, f"worst deviation {worst:.1e}")


def test_criterion_07_composite_law_and_dof():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        rho = random_density(rng, 4, trace=rng.random())
        ka = KrausSet(random_kraus(rng, 2))
        kb = KrausSet(random_kraus(rng, 2))
        za = z_from_kraus(ka, QT2)
        zb = z_from_kraus(kb, QT2)
        vector_side = local_transform(
            composite_from_density(rho, QT2.frame, QT2.frame), za, zb
        )
        evolved = np.zeros_like(rho)
        for ma in ka.operators:
            for mb in kb.operators:
                m = np.kron(ma, mb)
                evolved = evolved + m @ rho @ m.conj().T
        operator_side = composite_from_density(evolved, QT2.frame, QT2.frame)
        worst = max(worst, float(np.abs(vector_side - operator_side).max()))
    rank = dof_count_check(QT2.d, QT2.d)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and rank == 16 and elapsed < 30.0
    report_line(
        7,
        "composite transformation law and dof rank",
        ok,
        f"law dev {worst:.1e}, rank {rank}, {elapsed:.2f}s",
    )


def test_criterion_08_classical_quantum_dichotomy():
    start = time.monotonic()
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        rs = []
        for _ in range(2):
            psi = haar_state(rng, 2)
            rho = np.outer(psi, psi.conj())
            rs.append(r_from_p(p_from_density(rho, QT2.frame), QT2.d))
        probe = continuity_probe(QT2, rs[0], rs[1], steps=100)
        worst = max(worst, probe.max_deviation)
    quantum_ok = worst < 1e-9

    classical = continuity_probe(
        classical_theory(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]), steps=100
    )
    classical_ok = (not classical.pure_path) and abs(classical.midpoint_purity - 0.5) <= 1e-15
    elapsed = time.monotonic() - start
    ok = quantum_ok and classical_ok
    report_line(
        8,
        "classical/quantum dichotomy",
        ok,
        f"quantum path dev {worst:.1e}, classical midpoint sum p^2 = "
        f"{classical.midpoint_purity}, {elapsed:.2f}s",
    )


def test_criterion_09_power_law():
    quantum_table = {n: build_canonical_frame(n).k for n in range(1, 7)}
    classical_table = {n: n for n in range(1, 7)}
    real_table = {n: n * (n + 1) // 2 for n in range(1, 7)}
    r_quantum = fit_power_law(quantum_table)
    r_classical = fit_power_law(classical_table)
    real_check = is_completely_multiplicative(real_table)
    ok = (
        r_quantum == 2
        and r_classical == 1
        and not real_check.ok
        and real_check.counterexample in ((2, 2), (2, 3))
    )
    report_line(
        9,
        "power law",
        ok,
        f"quantum r={r_quantum}, classical r={r_classical}, "
        f"real-Hilbert counterexample {real_check.counterexample}",
    )


def test_criterion_10_frequency_convergence_and_reproducibility(tmp_path, budget):
    budget(FREQUENCY_TRIALS=2, CONTINUITY_STEPS=20)
    start = time.monotonic()
    shots = 1_000_000
    preparations = {
        0.0: QT2.basis_p[1],
        0.25: mix([QT2.basis_p[0], QT2.basis_p[1]], [0.25, 0.75]),
        0.5: mix([QT2.basis_p[0], QT2.basis_p[1]], [0.5, 0.5]),
        1.0: QT2.basis_p[0],
    }
    worst = 0.0
    for idx, (p_true, prep) in enumerate(sorted(preparations.items())):
        exp = Experiment(
            preparation=prep,
            partition=tuple(QT2.basis_r),
            r_identity=QT2.r_identity,
            shots=shots,
            seed=1000 + idx,
        )
        counts = simulate(exp)
        worst = max(worst, abs(counts.counts[1] / shots - p_true))
    freq_ok = worst < 0.005

    config = tmp_path / "suite.cfg"
    config.write_text(
        "[report]\nseed = 2026\n\n"
        "[simulate half]\ntheory = quantum\nn = 2\npreparation = mix:0.5\n"
        "partition = basis\nshots = 1000000\nout = counts.json\n\n"
        "[verify classical]\ntheory = classical\nn = 2\n"
    )
    code_a, _ = run_report(config, tmp_path / "run_a")
    code_b, _ = run_report(config, tmp_path / "run_b")
    identical = all(
        (tmp_path / "run_a" / name).read_bytes() == (tmp_path / "run_b" / name).read_bytes()
        for name in ("report.json", "report.csv", "counts.json")
    )
    elapsed = time.monotonic() - start
    ok = freq_ok and identical and code_a == code_b == 0 and elapsed < 60.0
    report_line(
        10,
        "frequency convergence and reproducibility",
        ok,
        f"max |freq - p| = {worst:.4f} (bound 0.005), byte-identical={identical}, {elapsed:.2f}s",
    )
