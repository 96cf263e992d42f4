"""Benchmark inputs and the four phases of one round.

A round runs four phases on the workload's inputs, in this order:

* long_path: one exact and one Euler sample path of PATH_STEPS steps
  after every fast suite, full suite and ``carkov`` process, so that
  these short samples spread over the whole round, and one exact path
  of GATED_STEPS steps that the empirical-covariance gate checks. The
  state recursion does nearly all of this work.
* verify: run_suite with the fast budget over a third of a population of
  models, a different third each round; in round 0 also run_suite with
  the full budget on configs/k2.json.
* closed_form: for each model of a population, validate ->
  residue_expansion -> moments -> assemble -> exact_step_operator at
  three dt -> the five closed-form checks -> a 501-point eval_r curve;
  then, timed apart, quadrature_r oracle points. No sampler runs here.
* cli: fresh ``carkov`` processes for analyze, simulate --method exact,
  simulate --method spectral and verify --budget fast in round 0; in
  later rounds, simulate --method spectral twice, the one command line
  figure steady enough to bound.

Every round repeats identical work: the same models, the same seeds. A
run's figure for an operation is its best time over all its calls; on a
machine shared with other jobs, slow spells last seconds, so calls spread
over a run give a steadier best than calls made together. Round 0 also
runs the output gates, which are not timed.

Every REF_INTERVAL_S seconds, before a timed call, the bench also times
a fixed reference loop that carkov does not touch; run.py scales the
run's figures by the loop's best time (see REF_SECONDS).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from carkov import covariance, markov, model, simulate, validate
from carkov.errors import CarkovError

from models import random_roots, to_config

#: steps of each timed sample path
PATH_STEPS = 20_000
#: steps of the exact path that the empirical-covariance gate checks each
#: round: run_suite's fast path, the shortest that fills the check's 100
#: blocks at dt = tau / 50
GATED_STEPS = 60_000
#: steps of the Euler path that the empirical-covariance gate checks
LONG_EULER_STEPS = 1_000_000
#: exact-sampler grid, as in run_suite's fast budget
EXACT_STEPS_PER_TAU = 50
#: Euler grid: the finest on which a 1e6-step path still fills the 100
#: blocks of ten correlation times that check_empirical_covariance needs
#: at lag 2 tau. Its O(dt) bias stays below two standard errors there.
EULER_STEPS_PER_TAU = 998
#: steps of the paths drawn twice for the same-seed gate
DETERMINISM_STEPS = 2_000
#: fast-suite population, a third of it per round; its tail percentile
#: needs ten models beyond it
FAST_POPULATION = 24
#: exact_step_operator step sizes in the closed-form chain, in units of tau
STEP_OPERATOR_DTS = (0.02, 0.2, 1.0)
#: covariance curve length, as in ``carkov analyze``
CURVE_POINTS = 501
#: oracle lags in units of tau, one quadrature_r point each
ORACLE_LAGS = (0.0, 0.5, 1.0, 2.0)
#: oracle agreement, relative to max(1, r(0)) as QUAD_REL_TOL is
ORACLE_TOL = 1e-6
#: coefficient perturbation that must make the suite fail
PERTURB = 1e-3
CLI_DT = 0.01
CLI_SIMULATE_STEPS = 100_000
#: the spectral design holds 2 (k+1) matrices of (steps+1) x 4096
#: doubles; 250 steps keeps it near 150 MB at k = 8
CLI_SPECTRAL_STEPS = 250
CLI_TIMEOUT_S = 120

CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"

#: the reference loop: 3x3 matrix-vector products in plain numpy, the
#: shape of the recursion kernel's inner loop
REF_ITERATIONS = 4000
_REF_MATRIX = np.array([[0.5, 0.1, 0.0], [0.0, 0.5, 0.1], [0.1, 0.0, 0.5]])
REF_INTERVAL_S = 0.5
#: nominal time of the reference loop, about its best on the 2-core Xeon
#: machine of the README's baseline. Figures are reported as seconds of a
#: machine on which the loop takes this long.
REF_SECONDS = 6.0e-3

#: path_k None means configs/k2.json
WORKLOADS = {
    "low_k": {"path_k": None, "fast_ks": (0, 1, 2, 3, 4),
              "closed_ks": (0, 1, 2, 3, 4), "closed_per_k": 4},
    "high_k": {"path_k": 8, "fast_ks": (5, 6, 7, 8),
               "closed_ks": (5, 6, 7, 8, 9, 10), "closed_per_k": 3},
}


@dataclass
class Inputs:
    spec: model.RootSpec
    config: Path | None  # config file of spec, if it came from one
    k2: model.RootSpec
    fast: list
    closed: list

    def record(self) -> dict:
        """Every generated model, so that a run can be rebuilt from its seed."""
        return {
            "path_model": model.to_config(self.spec),
            "fast_population": [model.to_config(s) for s in self.fast],
            "closed_form_population": [to_config(r, s) for r, s in self.closed],
        }


def make_inputs(workload: str, seed: int, root: Path) -> Inputs:
    cfg = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    k2_file = root / "configs" / "k2.json"
    k2 = model.load_model(k2_file)
    if cfg["path_k"] is None:
        spec, config = k2, k2_file
    else:
        spec, config = model.validate(*random_roots(rng, cfg["path_k"])), None
    ks = cfg["fast_ks"]
    fast = [model.validate(*random_roots(rng, ks[i % len(ks)]))
            for i in range(FAST_POPULATION)]
    closed = [random_roots(rng, k) for k in cfg["closed_ks"]
              for _ in range(cfg["closed_per_k"])]
    return Inputs(spec=spec, config=config, k2=k2, fast=fast, closed=closed)


def reference_seconds() -> float:
    z = np.ones(3)
    t0 = time.perf_counter()
    for _ in range(REF_ITERATIONS):
        z = _REF_MATRIX @ z + 1.0
    return time.perf_counter() - t0


def correlation_time(spec) -> float:
    return 1.0 / min(z.imag for z in spec.roots)


def companion_matches_roots(system, spec) -> bool:
    """Every companion eigenvalue lies within the Bauer-Fike radius of i * roots.

    The companion matrix A0 built from the characteristic polynomial has
    the eigenvalues i * zeta and, as eigenvectors, the columns of the
    Vandermonde matrix V of those values. By the Bauer-Fike theorem each
    eigenvalue of A0 + E lies within cond(V) ||E|| of one of them. E is
    the assembled drift row's departure from -chi, which
    check_characteristic reports as its own verdict, plus the
    eigensolver's backward error, taken as d^2 eps ||A||.
    """
    A = system.companion
    d = A.shape[0]
    chi = np.asarray(model.ode_char_poly(spec).coefficients)
    expected = np.array([1j * z for z in spec.roots])
    cond = np.linalg.cond(np.vander(expected, d, increasing=True).T)
    drift_gap = np.linalg.norm(system.drift + chi[:d])
    radius = cond * (drift_gap + d * d * np.finfo(float).eps * np.linalg.norm(A, 2))
    return all(np.abs(expected - lam).min() <= radius
               for lam in np.linalg.eigvals(A))


def _clear_oracle_cache() -> None:
    # quadrature_r memoises envelope integrals per model; clear them so
    # every round times the oracle cold, as a user's first points are
    envelope = getattr(covariance, "_envelope", None)
    if hasattr(envelope, "cache_clear"):
        envelope.cache_clear()


def _closed_form_chain(roots, scale):
    spec = model.validate(roots, scale)
    cov = covariance.residue_expansion(spec)
    mom = covariance.moments(cov)
    system, law = markov.assemble(spec)
    tau = correlation_time(spec)
    for dt in STEP_OPERATOR_DTS:
        simulate.exact_step_operator(system, law, dt * tau)
    reports = [
        validate.check_markov_factorization(cov, mom),
        validate.check_ode_annihilation(spec, cov),
        validate.check_lyapunov(system, law),
        validate.check_characteristic(system, spec),
        validate.check_diffusion_identity(system, spec),
    ]
    covariance.eval_r(cov, 0, np.linspace(0.0, 5.0 * tau, CURVE_POINTS))
    return spec, cov, system, reports


class Bench:
    """One run's inputs, timings, operation counts and broken gates.

    Every call the benchmark makes into carkov is an operation, and so is
    every check report and every gate. ``failures`` counts the failed
    ones by reason: a raised CarkovError, a FAIL verdict, a nonzero exit
    of the command line, a gate that does not hold. ``broken`` lists the
    gates that do not hold; any entry makes the run incorrect.
    """

    def __init__(self, work: Path, seed: int, inputs: Inputs, child_env: dict):
        self.work = work
        self.seed = seed
        self.inputs = inputs
        self.child_env = child_env
        self.times: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: Counter = Counter()
        self.broken: list[str] = []
        self.tracer = None
        self.cli_import_s: list[float] = []
        self.phase_s: dict[str, float] = defaultdict(float)
        self.ref_best = math.inf
        self._ref_at = -math.inf
        self._path_inputs = None

    # -- bookkeeping -------------------------------------------------------

    def op(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures[reason] += 1

    def gate(self, ok: bool, what: str) -> None:
        self.op(ok, f"gate: {what}")
        if not ok:
            self.broken.append(what)

    def verdicts(self, reports, what: str) -> None:
        for r in reports:
            self.op(r.passed, f"{what}: {r.name} FAIL")

    def reference(self) -> None:
        """Time the reference loop if REF_INTERVAL_S has passed since the last."""
        if time.perf_counter() - self._ref_at >= REF_INTERVAL_S:
            self.ref_best = min(self.ref_best, reference_seconds())
            self._ref_at = time.perf_counter()

    def timed(self, key: str, fn, *args, **kwargs):
        self.reference()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except CarkovError as exc:
            self.op(False, f"{key.split('/')[0]}: {type(exc).__name__}")
            return None
        self.times[key].append(time.perf_counter() - t0)
        self.op(True, key)
        return result

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def round(self, r: int) -> None:
        steps = (
            ("long_path", lambda: self.long_path(r)),
            ("verify", lambda: self.verify(r)),
            ("closed_form", lambda: self.closed_form(gates=r == 0)),
            ("cli", lambda: self.cli(r)),
        )
        for name, step in steps:
            t0 = time.perf_counter()
            step()
            self.phase_s[name] += time.perf_counter() - t0

    # -- phases ------------------------------------------------------------

    def _check_path(self, path, cov, what: str) -> None:
        try:
            report = validate.check_empirical_covariance(path, cov)
        except CarkovError as exc:
            self.gate(False, f"{what}: {type(exc).__name__}: {exc}")
            return
        self.gate(report.passed, f"{what} empirical covariance: {report.detail}")

    def _path_model(self):
        """(cov, system, law, exact dt, Euler dt) of the path model."""
        if self._path_inputs is None:
            spec = self.inputs.spec
            system, law = markov.assemble(spec)
            tau = correlation_time(spec)
            self._path_inputs = (covariance.residue_expansion(spec), system, law,
                                 tau / EXACT_STEPS_PER_TAU,
                                 tau / EULER_STEPS_PER_TAU)
        return self._path_inputs

    def path_samples(self) -> None:
        _, system, law, exact_dt, euler_dt = self._path_model()
        self.timed("exact", simulate.sample_exact, system, law, exact_dt,
                   PATH_STEPS, self.seed)
        self.timed("euler", simulate.sample_euler, system, law, euler_dt,
                   PATH_STEPS, self.seed)

    def long_path(self, r: int) -> None:
        spec = self.inputs.spec
        cov, system, law, exact_dt, euler_dt = self._path_model()
        tau = correlation_time(spec)
        try:
            path = simulate.sample_exact(system, law, exact_dt, GATED_STEPS,
                                         self.seed, stream=1 + r)
        except CarkovError as exc:
            self.gate(False, f"exact path: {type(exc).__name__}")
        else:
            self._check_path(path, cov, "exact path")
        if r > 0:
            return

        try:
            long = simulate.sample_euler(system, law, euler_dt,
                                         LONG_EULER_STEPS, self.seed)
        except CarkovError as exc:
            self.gate(False, f"1e6-step Euler path: {type(exc).__name__}")
        else:
            self._check_path(long, cov, "1e6-step Euler path")

        times = tau / 10.0 * np.arange(101)
        draws = {
            "sample_exact": lambda: simulate.sample_exact(
                system, law, exact_dt, DETERMINISM_STEPS, self.seed),
            "sample_euler": lambda: simulate.sample_euler(
                system, law, euler_dt, DETERMINISM_STEPS, self.seed),
            "sample_spectral": lambda: simulate.sample_spectral(
                spec, times, self.seed),
        }
        for name, draw in draws.items():
            try:
                a, b = draw().values, draw().values
            except CarkovError as exc:
                self.op(False, f"{name}: {type(exc).__name__}")
                continue
            self.gate(a.tobytes() == b.tobytes(), f"{name}: same-seed calls differ")

    def verify(self, r: int) -> None:
        for i, spec in enumerate(self.inputs.fast):
            if (i - r) % 3:
                continue
            reports = self.timed(f"suite_fast/{i}", validate.run_suite, spec,
                                 "fast", self.seed)
            if reports is not None:
                self.verdicts(reports, f"fast suite, model {i} (k = {spec.k})")
            self.path_samples()
        if r > 0:
            return
        reports = self.timed("suite_full", validate.run_suite, self.inputs.k2,
                             "full", self.seed)
        if reports is not None:
            self.verdicts(reports, "full suite")
        self.path_samples()
        try:
            reports = validate.run_suite(self.inputs.spec, "fast", self.seed,
                                         perturb_coef=PERTURB)
        except CarkovError as exc:
            self.gate(False, f"perturbed suite: {type(exc).__name__}")
        else:
            self.gate(not all(x.passed for x in reports),
                      f"run_suite(perturb_coef={PERTURB}) passed")

    def closed_form(self, gates: bool) -> None:
        _clear_oracle_cache()
        done = []
        for i, (roots, scale) in enumerate(self.inputs.closed):
            out = self.timed(f"model/{i}", _closed_form_chain, roots, scale)
            if out is None:
                continue
            spec, cov, system, reports = out
            self.verdicts(reports, f"closed form, model {i} (k = {spec.k})")
            if gates:
                self.gate(companion_matches_roots(system, spec),
                          f"closed form, model {i}: companion eigenvalues "
                          "farther from i * roots than the drift error allows")
            done.append((i, spec, cov))
        for i, spec, cov in done:
            tau = correlation_time(spec)
            r0 = covariance.eval_r(cov, 0, 0.0)
            for j, lag in enumerate(ORACLE_LAGS):
                q = self.timed(f"oracle/{i}/{j}", covariance.quadrature_r,
                               spec, 0, lag * tau)
                if q is None or not gates:
                    continue
                gap = abs(q - covariance.eval_r(cov, 0, lag * tau))
                self.gate(gap <= ORACLE_TOL * max(1.0, r0),
                          f"oracle, model {i}, t = {lag} tau: |quadrature_r "
                          f"- eval_r| = {gap:.3e}")

    # -- command line ------------------------------------------------------

    def carkov(self, argv) -> tuple[int | None, float]:
        """Run ``carkov <argv>`` in a fresh process; (exit code, seconds)."""
        env = self.child_env
        trace_file = None
        if self.tracer is not None:
            trace_file = self.work / "child-trace.json"
            env = {**env, "PERFBENCH_TRACE": str(trace_file)}
        cmd = [sys.executable, str(CLI_CHILD), *map(str, argv)]
        self.reference()
        t0 = time.perf_counter()
        try:
            code = subprocess.run(cmd, env=env, cwd=self.work,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL,
                                  timeout=CLI_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = None
        elapsed = time.perf_counter() - t0
        if trace_file is not None and trace_file.exists():
            data = json.loads(trace_file.read_text())
            self.tracer.merge(data["stats"])
            self.cli_import_s.append(data["import_s"])
            trace_file.unlink()
        return code, elapsed

    def model_file(self) -> Path:
        if self.inputs.config is not None:
            return self.inputs.config
        path = self.work / "model.json"
        if not path.exists():
            path.write_text(json.dumps(model.to_config(self.inputs.spec)))
        return path

    def cli(self, r: int) -> None:
        out = self.work / f"cli-{r}-{'traced' if self.tracer else 'plain'}"
        mf, seed = self.model_file(), str(self.seed)
        runs = {
            "cli_analyze": ["analyze", "--model", mf, "--out", out / "analyze"],
            "cli_simulate": ["simulate", "--model", mf, "--method", "exact",
                             "--dt", CLI_DT, "--steps", CLI_SIMULATE_STEPS,
                             "--seed", seed, "--out", out / "exact"],
            "cli_spectral": ["simulate", "--model", mf, "--method", "spectral",
                             "--dt", CLI_DT, "--steps", CLI_SPECTRAL_STEPS,
                             "--seed", seed, "--out", out / "spectral"],
            "cli_verify": ["verify", "--model", mf, "--budget", "fast",
                           "--seed", seed, "--out", out / "verify"],
        }
        for key in runs if r == 0 else ["cli_spectral"] * 2:
            code, elapsed = self.carkov(runs[key])
            self.times[key].append(elapsed)
            self.op(code == 0, f"{key}: exit {code}")
            self.path_samples()
        if r == 0:
            self._check_cli_outputs(out)
            code, _ = self.carkov(["verify", "--model", mf, "--budget", "fast",
                                   "--seed", seed, "--perturb", PERTURB])
            self.gate(code == 1, f"carkov verify --perturb {PERTURB} exited {code}")
        else:
            rel = Path("spectral", "path.csv")
            first = self.work / "cli-0-plain" / rel
            same = ((out / rel).exists() and first.exists()
                    and (out / rel).read_bytes() == first.read_bytes())
            self.gate(same, f"carkov rerun wrote a different {rel}")
            shutil.rmtree(out)

    def _check_cli_outputs(self, out: Path) -> None:
        spec = self.inputs.spec
        system, law = markov.assemble(spec)
        try:
            analysis = json.loads((out / "analyze" / "analysis.json").read_text())
            ito = {key: analysis["ito"][key] for key in ("a", "b", "sigma")}
            self.gate(ito == markov.ito_to_config(system, law),
                      "analysis.json Ito system differs from assemble()")
            curve = (out / "analyze" / "covariance_curve.csv").read_bytes()
            self.gate(curve.count(b"\n") == CURVE_POINTS + 1,
                      "covariance_curve.csv row count")

            data = (out / "exact" / "path.csv").read_bytes()
            self.gate(data.count(b"\n") == CLI_SIMULATE_STEPS + 2,
                      "exact path.csv row count")
            path = simulate.sample_exact(system, law, CLI_DT,
                                         CLI_SIMULATE_STEPS, self.seed)
            last = [float(x) for x in data.rstrip().rsplit(b"\n", 1)[1].split(b",")]
            self.gate(last == [path.times[-1], *path.values[:, -1]],
                      "exact path.csv differs from sample_exact()")

            data = (out / "spectral" / "path.csv").read_bytes()
            self.gate(data.count(b"\n") == CLI_SPECTRAL_STEPS + 2,
                      "spectral path.csv row count")
            report = json.loads((out / "verify" / "verify_report.json").read_text())
            self.gate(len(report) >= 7, "verify_report.json check count")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.gate(False, f"carkov outputs unreadable: {exc!r}")
