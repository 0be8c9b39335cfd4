"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import json

import numpy as np
import pytest

from cplab import (
    GKSGenerator,
    Superoperator,
    WitnessCandidate,
    bell_phi_matrix,
    choi_matrix,
    construct_witness,
    evolution_map,
    gks_to_lindblad,
    is_completely_positive,
    lindblad_to_gks,
    min_eigenvalue,
    negativity_scan,
    overlap_rate,
    similarity_to_transpose,
    standard_basis,
    superoperator_of,
)
from cplab.cli import main
from cplab.linalg import fro_norm, matrix_exp
from cplab.witness import DEFAULT_SCAN_GRID

from helpers import (
    apply_generator,
    overlap_rate_trace_form,
    random_density,
    random_generator,
    random_hermitian,
    random_psd,
    tensor_square_superop,
    transpose_superop,
)


def _finish(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f" ({len(failures)} failures, first: {failures[0]})"
    print(f"[{status}] criterion {num}: {description}{detail}")
    assert not failures, f"criterion {num}: {failures[:5]}"


@pytest.fixture(scope="module")
def witness_batch():
    """Witnesses for coefficient matrices with min eigenvalue <= -0.1: 50 each
    at d = 2, 3, then 20 each at d = 4, 5, 6."""
    rng = np.random.default_rng(2024)
    batch = []
    for d, count in {2: 50, 3: 50, 4: 20, 5: 20, 6: 20}.items():
        n = d * d - 1
        for _ in range(count):
            coeff = random_hermitian(n, rng)
            shift = np.linalg.eigvalsh(coeff)[0] + rng.uniform(0.1, 1.0)
            coeff = coeff - shift * np.eye(n)
            g = random_generator(d, rng, coeff=coeff)
            batch.append((g, construct_witness(g, rng=rng)))
    return batch


def test_criterion_01_coeff_vs_choi_equivalence():
    rng = np.random.default_rng(101)
    failures = []
    times = (0.01, 0.1, 1.0)
    for d in (2, 3):
        n = d * d - 1
        for trial in range(200):
            coeff = random_psd(n, rng) if trial % 2 else random_hermitian(n, rng)
            g = random_generator(d, rng, coeff=coeff)
            coeff_ok = np.linalg.eigvalsh(g.coeff)[0] >= -1e-9 * max(1.0, fro_norm(g.coeff))
            choi_ok = True
            for t in times:
                choi = choi_matrix(evolution_map(g, t))
                if min_eigenvalue(choi) < -1e-9 * max(1.0, fro_norm(choi)):
                    choi_ok = False
            if coeff_ok != choi_ok:
                failures.append(f"d={d} trial={trial}: coeff {coeff_ok} vs choi {choi_ok}")
            verdict = is_completely_positive(g)
            if verdict.is_cp != coeff_ok:
                failures.append(f"d={d} trial={trial}: verdict mismatch")
    _finish(1, "coefficient criterion <=> Choi sampling, 200 matrices per d in {2,3}", failures)


def test_criterion_02_trace_form_identity():
    rng = np.random.default_rng(102)
    failures = []
    counts = {2: 167, 3: 167, 4: 166}
    for d, count in counts.items():
        for trial in range(count):
            g = random_generator(d, rng)
            phi_m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            psi_m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            cross = np.trace(psi_m @ phi_m.conj().T)
            psi_m = psi_m - cross / np.trace(phi_m @ phi_m.conj().T) * phi_m
            direct = overlap_rate(g, phi_m.reshape(-1), psi_m.reshape(-1))
            traced = overlap_rate_trace_form(g.coeff, g.basis, phi_m, psi_m)
            if abs(direct - traced) > 1e-9 * (1.0 + abs(direct)):
                failures.append(f"d={d} trial={trial}: |{direct} - {traced}|")
    _finish(2, "trace form equals direct overlap rate, 500 random pairs", failures)


def test_criterion_03_witness_soundness(witness_batch):
    # d <= 3 only: at d >= 4 the default grid can start past a weak witness's
    # negativity window.
    failures = []
    for idx, (g, candidate) in enumerate(w for w in witness_batch if w[0].dim <= 3):
        if not isinstance(candidate, WitnessCandidate):
            failures.append(f"case {idx}: no candidate returned")
            continue
        if candidate.value >= 0:
            failures.append(f"case {idx}: value {candidate.value} not negative")
            continue
        scan = negativity_scan(g, candidate.psi, candidate.phi, t_grid=DEFAULT_SCAN_GRID)
        if scan.first_negative_time is None:
            failures.append(f"case {idx}: no negativity found on the scan grid")
    _finish(3, "100 non-PSD coefficient matrices all yield scanned witnesses", failures)


def test_criterion_04_fixed_phi_fixture():
    rng = np.random.default_rng(104)
    failures = []
    phi_m = bell_phi_matrix()
    triples = [(1.0 + 0j, 2.0 + 0j, 3.0 + 0j)]
    triples += [tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(20)]
    for idx, (alpha, beta, gamma) in enumerate(triples):
        w_op = np.array([[alpha, beta], [gamma, -alpha]], dtype=complex)
        psi_dag = np.linalg.solve(phi_m, w_op)
        if fro_norm(psi_dag @ phi_m + w_op.T) > 1e-12 * max(1.0, fro_norm(w_op)):
            failures.append(f"triple {idx}: psi_dag @ phi != -W^T")
        if fro_norm(phi_m @ psi_dag - w_op) > 1e-12 * max(1.0, fro_norm(w_op)):
            failures.append(f"triple {idx}: phi @ psi_dag != W")
    expected = np.sqrt(2.0) * np.array([[-3.0, 1.0], [1.0, 2.0]], dtype=complex)
    if fro_norm(np.linalg.solve(phi_m, np.array([[1.0, 2.0], [3.0, -1.0]])) - expected) > 1e-12:
        failures.append("(1,2,3) fixture matrix mismatch")
    # The full pipeline accepts the sign flip that this Phi induces.
    g = GKSGenerator(
        dim=2,
        hamiltonian=np.zeros((2, 2)),
        coeff=np.diag([1.0, 1.0, -1.0]),
        basis=standard_basis(2),
    )
    candidate = construct_witness(g, rng=rng, phi_matrix=phi_m)
    if not (candidate.transpose_sign == -1 and candidate.value < 0):
        failures.append("pipeline did not accept the flipped-sign candidate")
    _finish(4, "fixed singlet Phi reproduces -W^T for 21 triples", failures)


def test_criterion_05_similarity_solver():
    rng = np.random.default_rng(105)
    failures = []
    for d in (2, 3, 4):
        for trial in range(1000):
            if trial % 10 < 7:
                w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            else:
                # Defective: explicit Jordan blocks under a random similarity.
                jordan = np.zeros((d, d), dtype=complex)
                sizes = []
                left = d
                while left:
                    k = int(rng.integers(1, left + 1))
                    sizes.append(k)
                    left -= k
                pos = 0
                eigs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                for k in sizes:
                    lam = eigs[int(rng.integers(0, 2))]
                    for i in range(k):
                        jordan[pos + i, pos + i] = lam
                        if i + 1 < k:
                            jordan[pos + i, pos + i + 1] = 1.0
                    pos += k
                s = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                w = s @ jordan @ np.linalg.inv(s)
            p = similarity_to_transpose(w, rng=rng)
            residual = fro_norm(np.linalg.solve(p, w @ p) - w.T)
            if residual > 1e-8 * max(1.0, fro_norm(w)):
                failures.append(f"d={d} trial={trial}: residual {residual:.3e}")
            if abs(np.linalg.det(p)) <= 1e-10:
                failures.append(f"d={d} trial={trial}: |det| {abs(np.linalg.det(p)):.3e}")
    _finish(5, "similarity residual <= 1e-8 over 1000 matrices per d in {2,3,4}", failures)


def test_criterion_06_derivative_check(witness_batch):
    failures = []
    for idx, (g, candidate) in enumerate(witness_batch):
        if not isinstance(candidate, WitnessCandidate):
            failures.append(f"case {idx}: no candidate")
            continue
        # The forward difference is off by h f''(0) / 2, and f'' grows like ||L||^2.
        h = 1e-6 / max(1.0, np.linalg.norm(superoperator_of(g).matrix, 1))
        psi_hat = candidate.psi / np.linalg.norm(candidate.psi)
        rate = overlap_rate(g, candidate.phi, psi_hat)
        scan = negativity_scan(g, candidate.psi, candidate.phi, t_grid=[0.0, h])
        finite_diff = (scan.overlap_values[1] - scan.overlap_values[0]) / h
        if abs(finite_diff - rate) > max(1e-4, 1e-3 * abs(rate)):
            failures.append(f"case {idx}: fd {finite_diff:.6e} vs rate {rate:.6e}")
    _finish(6, "finite-difference overlap slope matches the rate, 160 witnesses at d = 2..6", failures)


def test_criterion_07_transposition_counterexample():
    failures = []
    tau = Superoperator(dim=2, matrix=transpose_superop(2))
    spectrum = np.linalg.eigvalsh(choi_matrix(tau))
    if np.max(np.abs(spectrum - np.array([-1.0, 1.0, 1.0, 1.0]))) > 1e-12:
        failures.append(f"tau Choi spectrum {spectrum}")
    pair = Superoperator(dim=4, matrix=tensor_square_superop(transpose_superop(2), 2))
    rng = np.random.default_rng(107)
    worst = np.inf
    for _ in range(1000):
        rho = random_density(4, rng)
        out = pair.apply(rho)
        worst = min(worst, float(np.linalg.eigvalsh((out + out.conj().T) / 2)[0]))
    if worst < -1e-12:
        failures.append(f"tau x tau produced eigenvalue {worst:.3e}")
    _finish(7, "transposition: Choi spectrum (1,1,1,-1); tau x tau stays positive", failures)


def test_criterion_08_semigroup_axioms():
    rng = np.random.default_rng(108)
    failures = []
    for trial in range(50):
        d = int(rng.choice([2, 3, 4, 5, 6]))
        n = d * d - 1
        coeff = random_hermitian(n, rng)
        g = random_generator(d, rng, coeff=coeff / fro_norm(coeff))
        base = superoperator_of(g).matrix
        s, t = rng.uniform(0.0, 1.0, size=2)
        comp = matrix_exp(s * base) @ matrix_exp(t * base) - matrix_exp((s + t) * base)
        if fro_norm(comp) > 1e-9:
            failures.append(f"trial {trial}: composition residual {fro_norm(comp):.3e}")
        rho = random_density(d, rng)
        for t_ev in (0.3, 2.0, 5.0):
            out = evolution_map(g, t_ev).apply(rho)
            if abs(np.trace(out) - 1.0) > 1e-9:
                failures.append(f"trial {trial}: trace drift at t={t_ev}")
            if fro_norm(out - out.conj().T) > 1e-9:
                failures.append(f"trial {trial}: Hermiticity drift at t={t_ev}")
        diff = evolution_map(g, 1e-6).apply(rho) - rho
        trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2))))
        if trace_norm > 1e-4 * (1.0 + fro_norm(base)):
            failures.append(f"trial {trial}: continuity {trace_norm:.3e}")
    _finish(8, "composition, trace, Hermiticity and continuity for 50 generators at d = 2..6", failures)


def test_criterion_09_jump_form_round_trip():
    rng = np.random.default_rng(109)
    failures = []
    for d, trials in ((2, 50), (3, 50), (4, 10), (5, 10), (6, 10)):
        n = d * d - 1
        for trial in range(trials):
            rank = int(rng.integers(1, n + 1))
            coeff = random_psd(n, rng, rank=rank)
            g = random_generator(d, rng, coeff=coeff)
            back = lindblad_to_gks(gks_to_lindblad(g), g.basis)
            if fro_norm(back.coeff - g.coeff) > 1e-9 * max(1.0, fro_norm(g.coeff)):
                failures.append(f"d={d} trial={trial}: coeff drift")
            for _ in range(20):
                rho = random_hermitian(d, rng)
                delta = fro_norm(apply_generator(back, rho) - apply_generator(g, rho))
                if delta > 1e-10 * max(1.0, fro_norm(rho)):
                    failures.append(f"d={d} trial={trial}: action drift {delta:.3e}")
                    break
    _finish(9, "GKS <-> jump-operator round trip on 130 PSD coefficient matrices at d = 2..6", failures)


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path, capsys):
    from pathlib import Path

    data = Path(__file__).parent / "data"
    failures = []

    cases = [
        ("config_depolarizing.json", 0),
        ("config_negative.json", 2),
        ("config_malformed.json", 1),
    ]
    for name, expected_code in cases:
        outputs = []
        for run in range(2):
            out_file = tmp_path / f"{name}.{run}.json"
            code = main(["check-cp", "--config", str(data / name), "--output", str(out_file)])
            capsys.readouterr()
            if code != expected_code:
                failures.append(f"{name}: exit {code}, expected {expected_code}")
            outputs.append(out_file.read_bytes() if out_file.exists() else b"")
        if outputs[0] != outputs[1]:
            failures.append(f"{name}: reports differ between runs")
    report = json.loads((tmp_path / "config_negative.json.0.json").read_text())
    if not (report["verdict"]["is_cp"] is False and report["witness"]["value"] < 0):
        failures.append("negative config report lacks the expected witness")
    _finish(10, "CLI byte-determinism and exit-code contract on the three examples", failures)
