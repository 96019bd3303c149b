"""The three benchmark workloads, their seeded inputs and output checks.

Inputs are drawn here from the run's seed with numpy alone (QR of Gaussian
matrices for the subspace bases), never through ``cgfusion.random_systems``,
so set-up cost and inputs stay fixed when the library changes.  Each
workload's ``check`` recomputes what it can with numpy from its own inputs
or from the produced system files and returns the reasons an output is
rejected; an empty list accepts it.

A failure reason is a pair ``(kind, name)``:

- ``("report", name)``: the library returned a report with ``passed=False``
  (or, for ``kgf_check``, an order certificate that does not hold);
- ``("check", name)``: the benchmark's own check rejected an output;
- ``("raised", type)``: the operation raised;
- ``("exit", command)``: a CLI command exited with a code other than 0 or 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import cgfusion as cg
import cgfusion.cli

#: frame_bounds must match eigvalsh of the benchmark's own S to this share of ||S||.
BOUNDS_REL_TOL = 1e-9
#: ||S_parseval - I|| and ||S_dual - S^-1|| / ||S^-1|| must stay within this,
#: plus the roundoff floor n * kappa(S) * eps that an ill-conditioned frame
#: imposes on any method (pure numpy reaches 1.5e-8 at kappa = 1.7e9, n = 7).
OUTPUT_REL_TOL = 1e-8
#: The CLI prints bounds with 6 significant digits.
PRINTED_REL_TOL = 1e-5
#: Sampling trials of adjoint_consistency, as in the CLI default.
TRIALS = 100


def random_dims(rng, n: int, count: int) -> list[int]:
    """Node dimensions: the first node full (n), the others uniform in [1, n]."""
    return [n] + [int(d) for d in rng.integers(1, n + 1, size=count - 1)]


def spread_dims(rng, n: int, count: int) -> list[int]:
    """Like :func:`random_dims`, but the other nodes take evenly spread values
    of [1, n] in a seeded order, so every seed gives the same sizes."""
    spread = np.rint(np.linspace(1, n, count - 1)).astype(int) if count > 1 else []
    return [n] + [int(d) for d in rng.permutation(spread)]


def draw_geometry(rng, n: int, ks, ms):
    """Subspace bases (n x k, via QR) and local operators (m x k), node by node.

    A first node with k = m = n makes every draw a frame almost surely.
    """
    bases, locals_ = [], []
    for k, m in zip(ks, ms):
        bases.append(np.linalg.qr(rng.standard_normal((n, k)))[0])
        locals_.append(rng.uniform(-1.0, 1.0, size=(m, k)))
    return bases, locals_


def frame_operator(mu, weights, bases, locals_) -> np.ndarray:
    """S = sum_i mu_i v_i^2 Lam_i^T Lam_i with Lam_i = L_i B_i^T, as A^T A."""
    stacked = np.vstack(
        [np.sqrt(m) * v * (loc @ basis.T) for m, v, basis, loc in zip(mu, weights, bases, locals_)]
    )
    return stacked.T @ stacked


def frame_operator_of_document(doc: dict) -> np.ndarray:
    """Frame operator of a system document in the file format."""
    n = doc["ambient_dim"]
    nodes = doc["nodes"]
    return frame_operator(
        [node["mu"] for node in nodes],
        [node["v"] for node in nodes],
        [np.array(node["subspace"], dtype=float).reshape(-1, n).T for node in nodes],
        [
            np.array(node["local_operator"], dtype=float).reshape(
                len(node["local_operator"]), len(node["subspace"])
            )
            for node in nodes
        ],
    )


def system_document(ids, mu, weights, bases, locals_) -> dict:
    return {
        "version": "1",
        "ambient_dim": int(bases[0].shape[0]),
        "nodes": [
            {
                "id": node_id,
                "mu": float(m),
                "v": float(v),
                "subspace": basis.T.tolist(),
                "local_operator": loc.tolist(),
            }
            for node_id, m, v, basis, loc in zip(ids, mu, weights, bases, locals_)
        ],
    }


@dataclass(frozen=True)
class Reference:
    """What the benchmark computes itself about one input frame."""

    lower: float
    upper: float
    inverse: np.ndarray
    inverse_norm: float

    @classmethod
    def of(cls, s: np.ndarray) -> "Reference":
        eigenvalues = np.linalg.eigvalsh(s)
        inverse = np.linalg.inv(s)
        return cls(float(eigenvalues[0]), float(eigenvalues[-1]), inverse, float(np.linalg.norm(inverse, 2)))

    def bounds_rejected(self, lower: float, upper: float, rel_tol: float = BOUNDS_REL_TOL) -> bool:
        slack = rel_tol * self.upper
        return abs(lower - self.lower) > slack or abs(upper - self.upper) > slack

    def output_tol(self) -> float:
        n = self.inverse.shape[0]
        return OUTPUT_REL_TOL + n * (self.upper / self.lower) * np.finfo(float).eps

    def parseval_rejected(self, s_flat: np.ndarray) -> bool:
        return np.linalg.norm(s_flat - np.eye(s_flat.shape[0]), 2) > self.output_tol()

    def dual_rejected(self, s_dual: np.ndarray) -> bool:
        return np.linalg.norm(s_dual - self.inverse, 2) > self.output_tol() * self.inverse_norm


def report_failures(reports) -> list[tuple[str, str]]:
    return [("report", rep.name) for rep in reports if not rep.passed]


def sizes_of(n: int, bases, locals_) -> dict[str, int]:
    return {
        "n": n,
        "N": len(bases),
        "sum_m": sum(loc.shape[0] for loc in locals_),
        "sum_k": sum(basis.shape[1] for basis in bases),
    }


# --- campaign-small -------------------------------------------------------

@dataclass(frozen=True)
class CampaignInput:
    n: int
    ids: tuple[str, ...]
    mu: np.ndarray
    v: np.ndarray
    s: np.ndarray
    chi_subspaces: tuple
    chi_locals: tuple
    xi_subspaces: tuple
    xi_locals: tuple
    k: object
    shift: object
    reference: Reference
    sizes: dict


@dataclass(frozen=True)
class CampaignOutcome:
    bounds: object
    order: object
    reports: list
    dual: object
    texts: tuple[str, str]


#: (n, N) shapes of campaign-small inputs.
SHAPES = [(n, count) for n in range(2, 9) for count in range(1, 9)]


class CampaignSmall:
    """Many small systems (n in [2, 8], N in [1, 8]) through every module."""

    name = "campaign-small"
    warmup_ops = 20

    def __init__(self, seed: int, pool: int = 392, trace_ops: int = 100):
        self.seed = seed
        self.pool_size = pool
        self.trace_ops = min(trace_ops, pool)
        self.pool: list[CampaignInput] = []

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        # Every (n, N) shape equally often, in a seeded order, so the pool's
        # cost does not depend on the seed.
        copies = -(-self.pool_size // len(SHAPES))
        order = rng.permutation(len(SHAPES) * copies)[: self.pool_size]
        pool = []
        for n, count in (SHAPES[i % len(SHAPES)] for i in order):
            mu = rng.uniform(0.5, 2.0, count)
            v = rng.uniform(0.5, 2.0, count)
            ms = random_dims(rng, n, count)
            bases, locals_ = draw_geometry(rng, n, random_dims(rng, n, count), ms)
            s = rng.uniform(0.5, 2.0, count)
            xi_bases, xi_locals = draw_geometry(rng, n, random_dims(rng, n, count), ms)
            k = rng.uniform(-1.0, 1.0, size=(n, n))
            g = rng.standard_normal((n, n))
            pool.append(CampaignInput(
                n=n,
                ids=tuple(f"n{i}" for i in range(count)),
                mu=mu,
                v=v,
                s=s,
                chi_subspaces=tuple(cg.Subspace(n, b) for b in bases),
                chi_locals=tuple(cg.Operator(loc) for loc in locals_),
                xi_subspaces=tuple(cg.Subspace(n, b) for b in xi_bases),
                xi_locals=tuple(cg.Operator(loc) for loc in xi_locals),
                k=cg.Operator(k),
                shift=cg.Operator(g @ g.T / n),
                reference=Reference.of(frame_operator(mu, v, bases, locals_)),
                sizes=sizes_of(n, bases, locals_),
            ))
        self.pool = pool

    def keys(self):
        return range(self.pool_size)

    def trace_keys(self):
        return range(self.trace_ops)

    def sizes(self, key) -> dict:
        return self.pool[key].sizes

    def run(self, key, mark=None) -> CampaignOutcome:
        d = self.pool[key]
        nodes = cg.MeasureNodes(d.ids, d.mu)
        chi = cg.GFusionSystem(d.n, nodes, d.chi_subspaces, d.chi_locals, d.v)
        xi = cg.GFusionSystem(d.n, nodes, d.xi_subspaces, d.xi_locals, d.s)
        bounds = cg.frame_bounds(chi)
        reports = [cg.adjoint_consistency(chi, TRIALS, 0)]
        a_star = cg.kgf_lower_bound(chi, d.k)
        order = cg.kgf_check(chi, d.k, a_star)
        reports.append(cg.atomic_equiv_check(chi, d.k))
        reports.append(cg.verify_resolution(cg.canonical_resolution(chi)))
        flat = cg.parsevalize(chi)
        dual, dual_report = cg.canonical_dual(chi)
        reports.append(dual_report)
        reports.append(cg.transform_shift(chi, d.shift)[1])
        pair = cg.PairSystem(chi, xi)
        reports.append(cg.pair_adjoint_and_norm(pair))
        reports.append(cg.bounded_below_analysis(pair))
        report_doc = {"version": "1", "kind": "report", "reports": [r.to_dict() for r in reports]}
        texts = (
            cg.dumps_canonical(report_doc),
            cg.dumps_canonical(cg.system_to_document(flat)),
        )
        return CampaignOutcome(bounds, order, reports, dual, texts)

    def check(self, key, out: CampaignOutcome) -> list[tuple[str, str]]:
        d = self.pool[key]
        reasons = report_failures(out.reports)
        if not out.order.holds:
            reasons.append(("report", "kgf_check"))
        if d.reference.bounds_rejected(out.bounds.lower, out.bounds.upper):
            reasons.append(("check", "frame_bounds"))
        report_doc = json.loads(out.texts[0])
        if len(report_doc["reports"]) != len(out.reports):
            reasons.append(("check", "report_text"))
        flat_doc = json.loads(out.texts[1])
        if flat_doc["ambient_dim"] != d.n or len(flat_doc["nodes"]) != len(d.ids):
            reasons.append(("check", "parseval_text"))
        elif d.reference.parseval_rejected(frame_operator_of_document(flat_doc)):
            reasons.append(("check", "parseval_identity"))
        # The dual is serialized only to be checked, outside the timed operation.
        dual_doc = cg.system_to_document(out.dual)
        if d.reference.dual_rejected(frame_operator_of_document(dual_doc)):
            reasons.append(("check", "dual_operator"))
        return reasons


# --- certify-tall ---------------------------------------------------------

@dataclass(frozen=True)
class CertifyOutcome:
    bounds: object
    order: object
    reports: list


class CertifyTall:
    """One tall frame (N >> n) through the certificates, in memory."""

    name = "certify-tall"
    warmup_ops = 0

    def __init__(self, seed: int, n: int = 64, count: int = 1000):
        self.seed = seed
        self.n = n
        self.count = count

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        n, count = self.n, self.count
        nodes = cg.MeasureNodes(tuple(f"n{i}" for i in range(count)), rng.uniform(0.5, 2.0, count))
        v = rng.uniform(0.5, 2.0, count)
        ms = spread_dims(rng, n, count)
        bases, locals_ = draw_geometry(rng, n, spread_dims(rng, n, count), ms)
        s = rng.uniform(0.5, 2.0, count)
        xi_bases, xi_locals = draw_geometry(rng, n, spread_dims(rng, n, count), ms)
        self.k = cg.Operator(rng.uniform(-1.0, 1.0, size=(n, n)))
        self.chi = cg.GFusionSystem(
            n, nodes, tuple(cg.Subspace(n, b) for b in bases),
            tuple(cg.Operator(loc) for loc in locals_), v,
        )
        self.xi = cg.GFusionSystem(
            n, nodes, tuple(cg.Subspace(n, b) for b in xi_bases),
            tuple(cg.Operator(loc) for loc in xi_locals), s,
        )
        self.reference = Reference.of(frame_operator(nodes.mu, v, bases, locals_))
        self._sizes = sizes_of(n, bases, locals_)

    def keys(self):
        return (0,)

    trace_keys = keys

    def sizes(self, key) -> dict:
        return self._sizes

    def run(self, key, mark=None) -> CertifyOutcome:
        mark = mark or (lambda step: None)
        chi = self.chi
        mark("check")
        reports = [cg.validate_nodes(chi.nodes, cg.WeightProfile(chi.weights))]
        bounds = cg.frame_bounds(chi)
        reports.append(cg.adjoint_consistency(chi, TRIALS, 0))
        mark("kgf")
        a_star = cg.kgf_lower_bound(chi, self.k)
        order = cg.kgf_check(chi, self.k, a_star)
        mark("atomic")  # default K = S
        reports.append(cg.atomic_wrt_frame_operator(chi))
        mark("resolve")  # canonical family
        reports.append(cg.verify_resolution(cg.canonical_resolution(chi)))
        mark("pair")
        pair = cg.PairSystem(chi, self.xi)
        reports.append(cg.pair_adjoint_and_norm(pair))
        reports.append(cg.bounded_below_analysis(pair))
        return CertifyOutcome(bounds, order, reports)

    def check(self, key, out: CertifyOutcome) -> list[tuple[str, str]]:
        reasons = report_failures(out.reports)
        if not out.order.holds:
            reasons.append(("report", "kgf_check"))
        if self.reference.bounds_rejected(out.bounds.lower, out.bounds.upper):
            reasons.append(("check", "frame_bounds"))
        return reasons


# --- cli-wide -------------------------------------------------------------

READ_COMMANDS = ("check",)
#: A command still running after this long is killed, so a run ends in time.
COMMAND_TIMEOUT_S = 150
#: One operation is one pass of this fixed mix, run in order.
CLI_MIX = (
    ("check", "IN"),
    ("parseval", "IN", "P"),
    ("check", "P"),
    ("dual", "IN", "D"),
)


@dataclass
class CommandResult:
    command: str
    seconds: float
    code: int
    stdout: str


def printed_bounds(stdout: str):
    """(lower, upper) from the ``frame_bounds`` block of ``check`` output."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if line.endswith("] frame_bounds"):
            values = {}
            for entry in lines[i + 1:]:
                if not entry.startswith("    "):
                    break
                key, _, value = entry.strip().partition(" = ")
                if key in ("lower", "upper"):
                    values[key] = float(value)
            if len(values) == 2:
                return values["lower"], values["upper"]
    return None


def failed_report_names(stdout: str) -> list[str]:
    return [line[len("[FAIL] "):].split()[0] for line in stdout.splitlines() if line.startswith("[FAIL] ")]


class CliWide:
    """``python -m cgfusion`` on a wide system file (n = 200, N = 12)."""

    name = "cli-wide"
    warmup_ops = 0

    def __init__(self, seed: int, workdir: Path, n: int = 200, count: int = 12,
                 in_process: bool = False):
        self.seed = seed
        self.n = n
        self.count = count
        self.workdir = Path(workdir)
        self.in_process = in_process
        self.files = {
            "IN": self.workdir / "system.json",
            "P": self.workdir / "parseval.json",
            "D": self.workdir / "dual.json",
        }
        self.digests: dict[str, tuple] = {}  # label -> (sha256, rejected) of the first pass
        src = str(Path(cg.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self.env = env

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        n, count = self.n, self.count
        mu = rng.uniform(0.5, 2.0, count)
        v = rng.uniform(0.5, 2.0, count)
        bases, locals_ = draw_geometry(rng, n, spread_dims(rng, n, count), spread_dims(rng, n, count))
        doc = system_document([f"n{i}" for i in range(count)], mu, v, bases, locals_)
        self.workdir.mkdir(parents=True, exist_ok=True)
        with open(self.files["IN"], "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc))
        self.reference = Reference.of(frame_operator(mu, v, bases, locals_))
        self._sizes = sizes_of(n, bases, locals_)

    def keys(self):
        return (0,)

    trace_keys = keys

    def sizes(self, key) -> dict:
        return self._sizes

    def _argv(self, step) -> list[str]:
        command, source, *out = step
        argv = [command, str(self.files[source])]
        if out:
            argv += ["--out", str(self.files[out[0]])]
        return argv

    def _run_command(self, argv) -> tuple[int, str]:
        if self.in_process:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cgfusion.cli.main(argv)
            return code, buffer.getvalue()
        done = subprocess.run(
            [sys.executable, "-m", "cgfusion", *argv],
            env=self.env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
        )
        return done.returncode, done.stdout

    def run(self, key, mark=None) -> list[CommandResult]:
        results = []
        for step in CLI_MIX:
            if mark is not None:
                mark(step[0])
            start = perf_counter()
            code, stdout = self._run_command(self._argv(step))
            results.append(CommandResult(step[0], perf_counter() - start, code, stdout))
        return results

    def check(self, key, out: list[CommandResult]) -> list[tuple[str, str]]:
        reasons = []
        for result in out:
            if result.code == 1:
                reasons += [("report", name) for name in failed_report_names(result.stdout)]
            elif result.code != 0:
                reasons.append(("exit", result.command))
        check_in, check_p = out[0], out[2]
        for result, expect in ((check_in, self.reference), (check_p, None)):
            printed = printed_bounds(result.stdout)
            if printed is None:
                reasons.append(("check", "printed_bounds"))
            elif expect is None:
                if max(abs(printed[0] - 1.0), abs(printed[1] - 1.0)) > PRINTED_REL_TOL:
                    reasons.append(("check", "printed_bounds"))
            elif expect.bounds_rejected(*printed, rel_tol=PRINTED_REL_TOL):
                reasons.append(("check", "printed_bounds"))
        for label, rejected in (
            ("P", self.reference.parseval_rejected),
            ("D", self.reference.dual_rejected),
        ):
            path = self.files[label]
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                reasons.append(("check", f"missing_{label}"))
                continue
            digest = hashlib.sha256(data).hexdigest()
            first = self.digests.setdefault(label, (digest, None))
            if first[0] != digest:
                reasons.append(("check", f"nondeterministic_{label}"))
            if first[0] == digest and first[1] is not None:
                wrong = first[1]  # the same bytes were checked on an earlier pass
            else:
                wrong = rejected(frame_operator_of_document(json.loads(data)))
                if first[0] == digest:
                    self.digests[label] = (digest, wrong)
            if wrong:
                reasons.append(("check", "parseval_identity" if label == "P" else "dual_operator"))
        return reasons

    def command_seconds(self, out: list[CommandResult]) -> dict[str, list[float]]:
        split = {"read": [], "write": []}
        for result in out:
            split["read" if result.command in READ_COMMANDS else "write"].append(result.seconds)
        return split


def make(name: str, seed: int, workdir: Path, tiny: bool = False, in_process: bool = False):
    """The workload called ``name``; ``tiny`` shrinks every size for smoke tests."""
    if name == "campaign-small":
        return CampaignSmall(seed, pool=8, trace_ops=4) if tiny else CampaignSmall(seed)
    if name == "certify-tall":
        return CertifyTall(seed, n=6, count=12) if tiny else CertifyTall(seed)
    if name == "cli-wide":
        sizes = {"n": 6, "count": 4} if tiny else {}
        return CliWide(seed, workdir, in_process=in_process, **sizes)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("campaign-small", "certify-tall", "cli-wide")
