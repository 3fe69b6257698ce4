"""The benchmark's three workloads: seeded case lists and their checks.

A case is one operation the benchmark times.  Each workload builds its
case list from ``--seed`` and checks the outputs of the first round
against references made apart from the program (``reference``) or against
properties the method must have.

The exponent structure of every verification case is taken from the
seeded families of the repository's acceptance criteria (criterion 5 for
Theorem 3.1, criterion 6 for Theorem 4.1); ``--seed`` draws everything
that sets the numbers without changing the code path: coefficients,
inner radii, weight masses, the psi scale and the sampled node values.
Cost per case therefore depends on the structure, which is fixed, so
the figures stay steady from seed to seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import mpmath as mp
import numpy as np

import reference as ref

FAULT_MESSAGE = "curve vanished at a quadrature node"


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    fault: bool = False          # fixed input that hits a named fault of the program
    data: dict = field(default_factory=dict)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _close(got, want, rel, what):
    """None when |got - want| <= rel * |want|, else a message."""
    got, want = mp.mpf(got), mp.mpf(want)
    if abs(got - want) <= rel * abs(want):
        return None
    return f"{what}: program {mp.nstr(got, 17)} vs reference {mp.nstr(want, 17)}"


# --------------------------------------------------------------------------
# t41_commutator


class T41Commutator:
    """Theorem 4.1 family of acceptance criterion 6 at windows 48 and 96."""

    name = "t41_commutator"
    scaled = True   # case times scaled by the calibration (run.py)
    cases_per_round = 12
    # family members with c + sum a_k b_k <= A_MIN take 3-5 s per case
    # (most of it the numeric tail fallback); they are left out so that
    # every case lies in 0.05-3 s
    A_MIN = -1.45
    windows = ((-48, 48), (-96, 96))
    check_octaves = (1.0, 12.0)   # checked radii: octaves above the largest inner radius

    def build(self, hc, seed, workdir):
        family = np.random.default_rng(606)   # criterion 6's seed
        rng = _rng(seed, 41)
        cases = []
        i = 0
        while len(cases) < self.cases_per_round:
            ex, kernel, symbols, profiles, weights = \
                hc.verification.sample_commutator_case(family, 1 + (i % 2))
            index, i = i, i + 1
            a_sum = kernel.psi.c + sum(f.exponent * s.b for f, s in zip(profiles, kernel.curves))
            if a_sum <= self.A_MIN:
                continue
            # same ranges as the family's sampler
            psi = hc.quadrature.PowerBeta(kernel.psi.c, kernel.psi.e, float(rng.uniform(0.5, 2.0)))
            kernel = hc.quadrature.KernelSpec(1, psi, kernel.curves)
            profiles = [hc.profiles.TruncatedPowerLaw(f.exponent, float(rng.uniform(0.5, 2.0)),
                                                      float(2.0 ** rng.uniform(-3, 3)))
                        for f in profiles]
            symbols = [hc.operators.PowerSymbol(s.beta, float(rng.uniform(0.5, 2.0)))
                       for s in symbols]
            weights = [hc.weights.HomogeneousWeight.power(w.degree, float(rng.uniform(0.5, 2.0)),
                                                          ex.d)
                       for w in weights]
            args = (ex, kernel, symbols, profiles, weights)
            cases.append(Case(f"criterion6-member{index}",
                              partial(self._run, hc.verification, args),
                              data={"args": args}))
        return cases

    def _run(self, verification, args):
        out = []
        for window in self.windows:
            rep = verification.verify_commutator(*args, window=window)
            out.append((rep.ratio, rep.lhs, rep.rhs, rep.passed))
        return tuple(out)

    def check(self, hc, cases, outcomes):
        """(errors, names of cases that failed through a named fault)."""
        errors = []
        sups = [0.0] * len(self.windows)
        for case, oc in zip(cases, outcomes):
            if oc.error is not None:
                errors.append(f"{case.name}: {oc.error}")
                continue
            for w, (ratio, lhs, rhs, passed) in enumerate(oc.value):
                if not (math.isfinite(ratio) and ratio > 0 and passed):
                    errors.append(f"{case.name}: window {w} ratio {ratio!r}")
                sups[w] = max(sups[w], ratio)
            errors += self._check_outputs(case, oc.captured)
        if sups[0] > 0 and abs(sups[1] / sups[0] - 1.0) > 0.05:
            errors.append(f"family sup ratio {sups[0]!r} (window 48) vs {sups[1]!r} (window 96)")
        errors += self._check_closed_coefficient(hc)
        return errors, set()

    def _check_outputs(self, case, captured):
        ex, kernel, symbols, profiles, weights = case.data["args"]
        if len(captured) != len(self.windows):
            return [f"{case.name}: expected {len(self.windows)} commutator outputs"]
        narrow, wide = captured
        errors = []
        # pointwise values cannot depend on the window they were sampled for
        shared = dict(zip(wide.log2_radii, wide.values))
        if any(shared.get(u) != v for u, v in zip(narrow.log2_radii, narrow.values)):
            errors.append(f"{case.name}: outputs differ between windows at a shared radius")
        psi = (kernel.psi.c, kernel.psi.e, kernel.psi.scale)
        curves = [s.b for s in kernel.curves]
        profs = [(f.exponent, f.coefficient, f.inner_radius) for f in profiles]
        syms = [(s.beta, s.coefficient) for s in symbols]
        grid = list(narrow.log2_radii)
        top = max(math.log2(f.inner_radius) for f in profiles)
        for octaves in self.check_octaves:
            i = next(j for j, u in enumerate(grid) if u >= top + octaves)
            want = ref.commutator_value(psi, curves, profs, syms, 2.0 ** grid[i])
            msg = _close(narrow.values[i], want, 1e-8,
                         f"{case.name}: commutator at log2 r = {grid[i]}")
            if msg:
                errors.append(msg)
        return errors

    def _check_closed_coefficient(self, hc):
        # criterion 6's closed case: identity kernel, f = 1, b = |x|^(1/2)
        # gives exactly (1/3) r^(1/2)
        q = hc.quadrature
        spec = hc.operators.OperatorSpec(1, 1, q.KernelSpec(1, q.PowerBeta(0.0, 0.0),
                                                           (q.PowerCurve(1.0),)))
        out = hc.operators.commutator_to_profile(
            spec, [hc.profiles.PowerLaw(0.0)], [hc.operators.PowerSymbol(0.5, 1.0)],
            hc.operators.log2_grid(-2, 2))
        if not (isinstance(out, hc.profiles.PowerLaw)
                and abs(out.coefficient - 1.0 / 3.0) <= 1e-10
                and abs(out.exponent - 0.5) <= 1e-12):
            return [f"closed commutator coefficient: got {out!r}, want (1/3) r^(1/2)"]
        return []


# --------------------------------------------------------------------------
# t31_sampled


def _sampled_nodes(rng, a, count, step):
    """Nodes of a sampled input: zero at the first node, then c 2^(a u) times
    seeded interior factors; the last two nodes keep slope a exactly, so
    the profile extends as a power law beyond the grid."""
    c = float(rng.uniform(0.5, 2.0))
    start = float(rng.uniform(-3.0, 3.0)) - step
    u = start + step * np.arange(count)
    factor = np.ones(count)
    factor[1:-2] = rng.uniform(0.7, 1.3, count - 3)
    v = c * np.exp2(a * u) * factor
    v[0] = 0.0
    return tuple(u.tolist()), tuple(v.tolist())


def _reference_input(P, profile):
    """The reference's own copy of an input, from its plain node data."""
    if isinstance(profile, P.SumProfile):
        return ref.Sum([_reference_input(P, t) for t in profile.terms])
    if isinstance(profile, P.SampledProfile):
        return ref.LogLogProfile(profile.log2_radii, profile.values)
    return ref.TruncatedPower(profile.exponent, profile.coefficient, profile.inner_radius)


class T31Sampled:
    """Theorem 3.1 upper bound on sampled and sum inputs (no closed form)."""

    name = "t31_sampled"
    scaled = True
    seeded_cases = 4
    window = (-24, 24)
    tol, norm_tol = 1e-6, 1e-4
    nodes = {1: 9, 2: 7}        # per input: at most 18 interior nodes per case
    fault_nodes = 33            # > 24 nodes below r: the named fault
    check_octaves = (1.5, 4.0, 10.0)

    def build(self, hc, seed, workdir):
        family = np.random.default_rng(505)   # criterion 5's seed
        rng = _rng(seed, 31)
        P, Q = hc.profiles, hc.quadrature
        cases = []
        for i in range(self.seeded_cases):
            m = 1 + (i % 2)
            ex, kernel, trunc, weights = hc.verification.sample_upper_case(
                family, m, low_p=i % 4 >= 2)
            psi = Q.PowerBeta(kernel.psi.c, kernel.psi.e, float(rng.uniform(0.5, 2.0)))
            kernel = Q.KernelSpec(1, psi, kernel.curves)
            weights = [hc.weights.HomogeneousWeight.power(w.degree, float(rng.uniform(0.5, 2.0)),
                                                          ex.d)
                       for w in weights]
            profiles = []
            for f in trunc:
                prof = P.SampledProfile(*_sampled_nodes(rng, f.exponent, self.nodes[m], 1.0))
                if i % 3 == 2:
                    prof = P.SumProfile((prof, P.TruncatedPowerLaw(
                        f.exponent - 0.25, float(rng.uniform(0.5, 2.0)),
                        float(2.0 ** rng.uniform(-3.0, 3.0)))))
                profiles.append(prof)
            cases.append(self._case(hc, f"criterion5-member{i}", ex, kernel, profiles, weights))
        cases += self._fault_cases(hc)
        return cases

    def _case(self, hc, name, ex, kernel, profiles, weights, fault=False):
        args = (ex, kernel, profiles, weights)
        return Case(name, partial(self._run, hc.verification, args), fault, {"args": args})

    def _run(self, verification, args):
        rep = verification.verify_mh_upper(*args, tol=self.tol, window=self.window,
                                           norm_tol=self.norm_tol)
        return (rep.ratio, rep.lhs, rep.rhs, rep.passed)

    def _fault_cases(self, hc):
        """Two fixed inputs (independent of the seed) that hit the fault:
        a 33-node sampled profile, and an operator output fed back into
        the operator."""
        P, Q, O = hc.profiles, hc.quadrature, hc.operators
        ex = hc.parameters.ExponentSet(m=1, n=1, d=1, alpha_i=[0.1], p_i=[2.0], q_i=[2.0],
                                       lambda_i=[0.8], gamma_i=[0.0])
        kernel = Q.KernelSpec(1, Q.PowerBeta(0.3, 0.2), (Q.PowerCurve(1.0),))
        weights = [hc.weights.HomogeneousWeight.power(0.0, 1.0, 1)]
        a = 0.8 - 0.1 - 0.5 - 0.5          # extremal exponent minus 0.5
        dense = P.SampledProfile(*_sampled_nodes(np.random.default_rng(0), a,
                                                 self.fault_nodes, 0.5))
        grid = O.log2_grid(self.window[0] - 1.0, self.window[1] + 1.0, 8)
        fed_back = O.apply_to_profile(O.OperatorSpec(1, 1, kernel),
                                      [P.TruncatedPowerLaw(a, 1.0, 1.0)], grid)
        return [self._case(hc, f"fault-{self.fault_nodes}-node-input", ex, kernel, [dense],
                           weights, True),
                self._case(hc, "fault-operator-output-input", ex, kernel, [fed_back],
                           weights, True)]

    def check(self, hc, cases, outcomes):
        """(errors, names of cases that failed through the named fault).

        A fault case that no longer fails (the fault mended) is checked
        like every other case.
        """
        errors, faulted = [], set()
        for case, oc in zip(cases, outcomes):
            if case.fault and oc.error == f"ValueError: {FAULT_MESSAGE}":
                faulted.add(case.name)
                continue
            if oc.error is not None:
                errors.append(f"{case.name}: {oc.error}")
                continue
            ratio, lhs, rhs, passed = oc.value
            if not (math.isfinite(ratio) and ratio > 0 and ratio <= 1.0 + self.tol and passed):
                errors.append(f"{case.name}: Theorem 3.1 ratio {ratio!r} above 1 + {self.tol}")
            errors += self._check_outputs(hc, case, oc.captured)
        return errors, faulted

    def _check_outputs(self, hc, case, captured):
        ex, kernel, profiles, weights = case.data["args"]
        if len(captured) != 1:
            return [f"{case.name}: expected one operator output"]
        out = captured[0]
        psi = (kernel.psi.c, kernel.psi.e, kernel.psi.scale)
        curves = [s.b for s in kernel.curves]
        inputs = [_reference_input(hc.profiles, p) for p in profiles]
        start = max(p.support_start() for p in inputs)
        grid = list(out.log2_radii)
        errors = []
        for octaves in self.check_octaves:
            i = next(j for j, u in enumerate(grid) if u >= start + octaves)
            want = ref.operator_value(psi, curves, inputs, 2.0 ** grid[i])
            msg = _close(out.values[i], want, 1e-8,
                         f"{case.name}: operator at log2 r = {grid[i]}")
            if msg:
                errors.append(msg)
        return errors


# --------------------------------------------------------------------------
# cube_constants


# One constant per row: (kind, psi factors ((c1, e1), (c2, e2)), MinPower
# betas, the kind's curve exponents, lambda_i, commutator beta_i).  Every
# seeded row converges at tol 1e-4 on the integrator's fourth level
# (2.16 M points, 0.25-0.8 s) and is at least 2 at psi scale 1, so with
# scales in [0.5, 2] the convergence test max(1, |value|) scales with the
# value and the same levels run for every seed.
CUBE_CONSTANTS = (
    ("A1", ((-0.28, 0.06), (-0.02, 0.34)), (1.1,), (-0.29,), (0.3,), (0.19,)),
    ("A1", ((0.07, -0.23), (0.1, 0.14)), (1.26, 1.24), (-0.4, -0.17), (0.45, 0.46), (0.16, 0.11)),
    ("A1", ((-0.29, 0.37), (-0.02, -0.01)), (1.18,), (-0.29,), (0.39,), (0.13,)),
    ("A1", ((0.15, -0.06), (-0.15, 0.01)), (0.99, 0.71), (-0.34, -0.22), (0.15, 0.16), (0.16, 0.2)),
    ("A2", ((0.2, -0.04), (-0.08, 0.08)), (0.77, 0.8), (-0.4, -0.33), (0.13, 0.4), (0.3, 0.2)),
    ("A2", ((0.03, 0.21), (-0.07, 0.28)), (1.34,), (-0.37,), (0.16,), (0.37,)),
    ("A2", ((0.27, 0.13), (-0.1, 0.06)), (0.61, 1.18), (-0.18, -0.35), (0.44, 0.4), (0.22, 0.13)),
    ("A2", ((0.22, -0.19), (-0.03, 0.16)), (1.01,), (-0.5,), (0.16,), (0.2,)),
    ("CommutatorMH", ((0.04, -0.27), (0.18, 0.37)), (1.28,), (-0.57,), (0.24,), (0.21,)),
    ("CommutatorMH", ((-0.25, 0.23), (-0.22, -0.21)), (0.7, 0.67), (-0.06, -0.44), (0.22, 0.43),
     (0.32, 0.17)),
    ("CommutatorMH", ((-0.27, -0.15), (-0.22, 0.03)), (0.89,), (-0.25,), (0.21,), (0.11,)),
    ("CommutatorMH", ((-0.22, -0.17), (-0.12, 0.01)), (1.34, 0.82), (-0.06, -0.19), (0.44, 0.26),
     (0.1, 0.38)),
)
# Fixed rows (independent of the seed) that converge on the third level,
# where the reported abs_error is the last level difference and falls
# below the true error: the abs_error fault.
CUBE_FAULT_CONSTANTS = (
    ("A1", ((0.15, 0.33), (-0.22, -0.17)), (1.24,), (-0.21,), (0.39,), (0.45,)),
    ("CommutatorMH", ((-0.03, -0.1), (-0.12, -0.25)), (0.78,), (-0.44,), (0.17,), (0.12,)),
)


class CubeConstants:
    """Kernel constants over [0,1]^2 through the CLI's config layer."""

    name = "cube_constants"
    # its 2-D levels stream arrays of millions of points, which slow down a
    # third to a half as much as the small-array calibration: scaling would
    # add noise, so its case times are reported as measured
    scaled = False
    tol = 1e-4

    def build(self, hc, seed, workdir):
        rng = _rng(seed, 2)
        cases = [self._case(workdir, hc, f"constant{i}-{row[0]}", row, rng)
                 for i, row in enumerate(CUBE_CONSTANTS)]
        cases += [self._case(workdir, hc, f"fault-abs-error-{row[0]}", row, None)
                  for row in CUBE_FAULT_CONSTANTS]
        return cases

    def _case(self, workdir, hc, name, row, rng):
        """Write the row's JSON config; ``rng`` draws the psi scale and how
        the fixed curve exponents are realised by (d, q_i, gamma_i, p_i,
        alpha_i).  Without ``rng`` the row is fixed."""
        kind, factors, betas, x, lam, cbeta = row
        m = len(betas)
        e1 = np.asarray(x) + (np.asarray(lam) if kind == "A2" else 0.0)   # A1 exponents
        if rng is None:
            d, q, gamma, p, scale = 1, np.full(m, 2.0), np.zeros(m), np.full(m, 2.0), 1.0
        else:
            d = int(rng.integers(1, 3))
            q, gamma = rng.uniform(1.5, 3.0, m), rng.uniform(-0.3, 0.8, m)
            p, scale = rng.uniform(1.0, 3.0, m), float(rng.uniform(0.5, 2.0))
        alpha = np.asarray(lam) - e1 - (d + gamma) / q
        exponents = {"m": m, "n": 2, "d": d, "alpha_i": alpha.tolist(), "p_i": p.tolist(),
                     "q_i": q.tolist(), "lambda_i": list(lam), "gamma_i": gamma.tolist(),
                     "beta_i": list(cbeta)}
        kernel = {"n": 2, "psi": {"kind": "product_power_beta",
                                  "factors": [list(f) for f in factors], "scale": scale},
                  "curves": [{"kind": "min_power", "beta": b} for b in betas]}
        cfg = {"job": "constant", "kind": kind, "exponents": exponents, "kernel": kernel,
               "controls": {"tol": self.tol}, "output": str(workdir / f"{name}.csv")}
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return Case(name, partial(self._run, hc, path), rng is None, {"cfg": cfg})

    @staticmethod
    def _run(hc, path):
        """JSON config in, CSV out, through the CLI's config parsing and CSV writer.

        ``cli.main`` is not called: its constant job clamps the tolerance
        to at most 1e-8, where no n = 2 min-power constant converges.
        """
        cli = hc.cli
        cfg = json.loads(path.read_text(encoding="utf-8"))
        exponents = cli._build_exponents(cfg["exponents"], "config.exponents")
        kernel = cli._build_kernel(cfg["kernel"], "config.kernel")
        res = hc.constants.kernel_constant(hc.constants.ConstantKind(cfg["kind"]), exponents,
                                           kernel, tol=float(cfg["controls"]["tol"]))
        cli._write_csv(cfg["output"], ["kind", "value", "status", "abs_error", "evaluations"],
                       [[cfg["kind"], res.value, res.status.value, res.abs_error,
                         res.evaluations]])
        with open(cfg["output"], encoding="utf-8") as fh:
            return fh.read()

    def check(self, hc, cases, outcomes):
        """(errors, names of constants that failed through the named fault).

        Every status must be converged and every value within its reported
        abs_error of the mpmath reference.  A value within the requested
        tolerance but outside its abs_error is the abs_error fault: counted
        as failed.  Anything further off is wrong.
        """
        errors, faulted = [], set()
        for case, oc in zip(cases, outcomes):
            if oc.error is not None:
                errors.append(f"{case.name}: {oc.error}")
                continue
            kind, value, status, abs_error, _ = oc.value.splitlines()[1].split(",")
            if status != "converged":
                errors.append(f"{case.name}: status {status}")
                continue
            cfg = case.data["cfg"]
            ex, kern = cfg["exponents"], cfg["kernel"]
            e1 = [lam - a - (ex["d"] + g) / q for a, g, q, lam in
                  zip(ex["alpha_i"], ex["gamma_i"], ex["q_i"], ex["lambda_i"])]
            exps = ([x - lam for x, lam in zip(e1, ex["lambda_i"])] if kind == "A2" else e1)
            want = ref.min_kernel_constant(
                kern["psi"]["factors"], kern["psi"]["scale"],
                [c["beta"] for c in kern["curves"]], exps,
                ex["beta_i"] if kind == "CommutatorMH" else None)
            miss = abs(mp.mpf(value) - want)
            if miss <= float(abs_error):
                continue
            if miss <= self.tol * max(1, abs(want)):
                faulted.add(case.name)
            else:
                errors.append(f"{case.name}: value {value} differs from reference "
                              f"{mp.nstr(want, 17)} by more than the tolerance")
        return errors, faulted


WORKLOADS = {w.name: w for w in (T41Commutator(), T31Sampled(), CubeConstants())}
