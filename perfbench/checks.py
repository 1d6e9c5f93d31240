"""Output checks: every report is compared with an independent oracle.

Bundled reports must equal the golden files byte for byte. For generated
scenarios every expected value is recomputed from the scenario document
alone: reduced states from numpy reshapes of the written amplitudes (or from
V^dagger psi with the written matrix), Hamiltonians from the occupation-number
rule for ladder operators, the conversion dynamics in closed form (Rabi) and
the hopping chain from its single-particle propagator (Slater determinants).
None of this goes through relfock.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations

import numpy as np

TOL = 1e-8          # agreement between report and oracle
ZERO_EIG = 1e-12    # the library's default cutoff for reported outcomes
SSR_TOL = 1e-12     # the library's default off-sector tolerance


@dataclass
class Tally:
    """Tasks plus checks attempted, and how many of them failed."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)


def check_report(case, report_bytes: bytes) -> Tally:
    """Count the report's tasks and checks; each failed task or check is one
    failure. ``case`` is a workloads.Case."""
    tally = Tally()
    try:
        report = json.loads(report_bytes)
        tasks = report["tasks"]
    except (ValueError, KeyError, TypeError) as exc:
        tally.add(f"{case.name}: parse", False, repr(exc))
        return tally
    for task in tasks:
        tally.add(f"{case.name}/{task.get('name')}: status", task.get("status") == "ok",
                  json.dumps(task.get("error")))
    if case.golden is not None:
        tally.add(f"{case.name}: golden", report_bytes == case.golden, "report differs")
        return tally
    doc = case.doc
    oracle = Oracle(doc)
    params = {t["name"]: t for t in doc["tasks"]}
    for task in tasks:
        if task.get("status") != "ok":
            continue
        where = f"{case.name}/{task['name']}"
        try:
            checks = oracle.check_task({**params[task["name"]], "result": task["result"]})
        except Exception as exc:  # noqa: BLE001 - a malformed result is a failed check
            tally.add(f"{where}: oracle", False, repr(exc))
            continue
        for name, ok, detail in checks:
            tally.add(f"{where}: {name}", bool(ok), detail)
    return tally


def _complex(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def _close(name: str, got, want, tol: float = TOL):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return name, False, f"shape {got.shape} != {want.shape}"
    dev = float(np.abs(got - want).max()) if got.size else 0.0
    return name, dev < tol, f"max deviation {dev:.3g}"


class Space:
    def __init__(self, entry: dict):
        self.modes = entry["modes"]
        self.labels = [m["label"] for m in self.modes]
        self.dims = [m.get("max_occupation", 1) + 1 for m in self.modes]
        self.dimension = int(np.prod(self.dims))
        self.fermion = [m.get("statistics", "boson") == "fermion" for m in self.modes]
        grids = np.indices(self.dims).reshape(len(self.dims), -1).T
        self.occupations = grids  # row i is the occupation tuple of basis index i

    def charges(self, kind: str) -> np.ndarray:
        per_mode = np.array([m.get("charges", {}).get(kind, 0) for m in self.modes])
        return self.occupations @ per_mode

    def index(self, occ) -> int:
        return int(np.ravel_multi_index(tuple(occ), self.dims))


class Oracle:
    """Expected results for one generated scenario document."""

    def __init__(self, doc: dict):
        self.spaces = {s["id"]: Space(s) for s in doc["spaces"]}
        self.states = {s["name"]: s for s in doc["states"]}
        self.embeddings = {e["name"]: e for e in doc["embeddings"]}
        self.hamiltonians = {h["name"]: h for h in doc["hamiltonians"]}
        self._assembled: dict[str, tuple[Space, np.ndarray]] = {}

    # -- inputs -----------------------------------------------------------

    def state(self, name: str) -> tuple[Space, np.ndarray]:
        entry = self.states[name]
        space = self.spaces[entry["space"]]
        if entry["kind"] == "amplitudes":
            return space, _complex(entry["amplitudes"])
        if entry["kind"] == "basis":
            psi = np.zeros(space.dimension, dtype=np.complex128)
            psi[space.index(entry["occupations"])] = 1.0
            return space, psi
        raise ValueError(f"no oracle for state kind {entry['kind']!r}")

    def component(self, emb: dict, psi: np.ndarray) -> np.ndarray:
        """The pulled-back state as a (dim A, dim B) matrix."""
        space = self.spaces[emb["reference"]]
        if emb["kind"] == "isometry":
            v = _complex(emb["matrix"])
            dim_a = self.spaces[emb["subsystem"]].dimension
            return (v.conj().T @ psi).reshape(dim_a, -1)
        return self._partition(space, psi, emb["subsystem_modes"],
                               emb.get("complementer_modes"), emb.get("frozen", {}))

    @staticmethod
    def _partition(space: Space, psi, sub, comp, frozen) -> np.ndarray:
        tensor = psi.reshape(space.dims)
        pick = tuple(frozen.get(label, slice(None)) for label in space.labels)
        tensor = tensor[pick]
        free = [l for l in space.labels if l not in frozen]
        if comp is None:
            comp = [l for l in free if l not in sub]
        tensor = tensor.transpose([free.index(l) for l in list(sub) + list(comp)])
        dim_a = int(np.prod([space.dims[space.labels.index(l)] for l in sub]))
        return tensor.reshape(dim_a, -1)

    def residual(self, emb: dict, psi: np.ndarray) -> np.ndarray:
        if emb["kind"] == "isometry":
            v = _complex(emb["matrix"])
            return psi - v @ (v.conj().T @ psi)
        space = self.spaces[emb["reference"]]
        inside = np.ones(space.dimension, dtype=bool)
        for label, occ in emb.get("frozen", {}).items():
            inside &= space.occupations[:, space.labels.index(label)] == occ
        return np.where(inside, 0.0, psi)

    def hamiltonian(self, name: str) -> tuple[Space, np.ndarray]:
        """Dense H from the occupation rule: sqrt factors and a Jordan-Wigner
        sign over the fermion modes before a fermionic target; each term's
        adjoint is added unless the term is self-adjoint."""
        if name in self._assembled:
            return self._assembled[name]
        entry = self.hamiltonians[name]
        space = self.spaces[entry["space"]]
        total = np.zeros((space.dimension, space.dimension), dtype=np.complex128)
        for term in entry["terms"]:
            mat = np.zeros_like(total)
            for col, occ in enumerate(space.occupations):
                amp, occ = term["coefficient"], list(occ)
                for kind, label in reversed(term["factors"]):
                    j = space.labels.index(label)
                    if kind == "number":
                        amp *= occ[j]
                        continue
                    if space.fermion[j]:
                        amp *= (-1) ** sum(occ[k] for k in range(j) if space.fermion[k])
                    step = 1 if kind == "create" else -1
                    if not 0 <= occ[j] + step < space.dims[j]:
                        amp = 0.0
                        break
                    amp *= np.sqrt(max(occ[j], occ[j] + step))
                    occ[j] += step
                if amp != 0.0:
                    mat[space.index(occ), col] += amp
            self_adjoint = np.abs(mat - mat.conj().T).max() < 1e-10
            total += mat if self_adjoint else mat + mat.conj().T
        self._assembled[name] = space, total
        return space, total

    # -- closed-form dynamics --------------------------------------------

    def closed_form(self, ham: str, state: str, t: float) -> np.ndarray | None:
        """psi(t) where the generator's Hamiltonian has a closed form."""
        if ham == "conversion":
            return self._rabi(ham, state, t)
        if ham == "hopping":
            return self._slater(ham, state, t)
        return None

    def _rabi(self, ham: str, state: str, t: float) -> np.ndarray:
        _, h = self.hamiltonian(ham)
        _, psi0 = self.state(state)
        p = int(np.argmax(np.abs(psi0)))
        coupled = np.flatnonzero(h[:, p])
        q = int(coupled[0]) if len(coupled) == 1 else p
        if q == p or np.flatnonzero(h[:, q]).tolist() != [p]:
            raise ValueError("initial state is not in a two-level block")
        g = abs(h[q, p])
        psi = np.zeros_like(psi0)
        psi[p] = np.cos(g * t)
        psi[q] = -1j * (h[q, p] / g) * np.sin(g * t)
        return psi

    def _slater(self, ham: str, state: str, t: float) -> np.ndarray:
        """Free fermions: amplitude of occupied set S is det U[S, K] with
        U = exp(-i h t) the single-particle propagator."""
        entry = self.hamiltonians[ham]
        space, psi0 = self.state(state)
        n = len(space.labels)
        h = np.zeros((n, n), dtype=np.complex128)
        for term in entry["terms"]:
            (k1, l1), (k2, l2) = term["factors"]
            if (k1, k2) != ("create", "annihilate"):
                raise ValueError("hopping terms must be c+_i c_j")
            i, j = space.labels.index(l1), space.labels.index(l2)
            h[i, j] += term["coefficient"]
            if i != j:
                h[j, i] += term["coefficient"]
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * w * t)) @ v.conj().T
        start = space.occupations[int(np.argmax(np.abs(psi0)))]
        filled = np.flatnonzero(start)
        psi = np.zeros_like(psi0)
        for occ_set in combinations(range(n), len(filled)):
            occ = np.zeros(n, dtype=int)
            occ[list(occ_set)] = 1
            psi[space.index(occ)] = np.linalg.det(u[np.ix_(occ_set, filled)])
        return psi

    # -- per-command checks ------------------------------------------------

    def check_task(self, task: dict) -> list:
        return getattr(self, "_check_" + task["command"].replace("-", "_"))(task, task["result"])

    def _rho(self, task: dict, factor: str = "A"):
        _, psi = self.state(task["state"])
        m = self.component(self.embeddings[task["embedding"]], psi)
        return m @ m.conj().T if factor == "A" else m.T @ m.conj()

    @staticmethod
    def _eigs(rho: np.ndarray) -> np.ndarray:
        w = np.linalg.eigvalsh(rho)[::-1]
        return np.clip(w[w >= ZERO_EIG], 0.0, 1.0)

    def _check_reduce(self, task, res) -> list:
        rho = self._rho(task, task.get("factor", "A"))
        trace = float(np.trace(rho).real)
        return [
            _close("matrix", _complex(res["matrix"]), rho),
            _close("trace", res["trace"], trace),
            _close("trace + deficit = 1", res["trace"] + res["trace_deficit"], 1.0),
        ]

    def _check_spectrum(self, task, res) -> list:
        rho = self._rho(task, task.get("factor", "A"))
        eigs = np.asarray(res["eigenvalues"])
        vecs = _complex(res["eigenvectors"]).reshape(len(eigs), -1).T
        return [
            _close("eigenvalues", eigs, self._eigs(rho)),
            _close("annihilation", res["annihilation_probability"],
                   1.0 - float(np.trace(rho).real)),
            _close("eigenvectors", rho @ vecs, vecs * eigs, 1e-7),
            _close("orthonormal", vecs.conj().T @ vecs, np.eye(len(eigs))),
        ]

    def _check_schmidt(self, task, res) -> list:
        _, psi = self.state(task["state"])
        emb = self.embeddings[task["embedding"]]
        m = self.component(emb, psi)
        coeffs = np.asarray(res["coefficients"])
        a = _complex(res["a_vectors"]).reshape(len(coeffs), -1)
        b = _complex(res["b_vectors"]).reshape(len(coeffs), -1)
        residual = self.residual(emb, psi)
        return [
            _close("coefficients^2 = eigenvalues", coeffs ** 2, self._eigs(m @ m.conj().T)),
            _close("reconstruction", (a.T * coeffs) @ b, m),
            _close("residual", _complex(res["residual"]), residual),
            _close("residual norm", res["residual_norm_sq"],
                   float(np.vdot(residual, residual).real)),
        ]

    def _check_joint(self, task, res) -> list:
        _, psi = self.state(task["state"])
        parts = [self.embeddings[n] for n in task["embeddings"]]
        space = self.spaces[parts[0]["reference"]]
        frozen = {k: v for p in parts for k, v in p.get("frozen", {}).items()}
        subs = [p["subsystem_modes"] for p in parts]
        probs = np.asarray(res["probabilities"])
        checks = []
        for i, (sub, spectrum) in enumerate(zip(subs, res["spectra"])):
            m = self._partition(space, psi, sub, None, frozen)
            eigs = np.asarray(spectrum["eigenvalues"])
            checks.append(_close(f"spectrum {i}", eigs, self._eigs(m @ m.conj().T)))
            others = tuple(k for k in range(len(subs)) if k != i)
            checks.append(_close(f"marginal {i}", probs.sum(axis=others), eigs))
        joint = self._partition(space, psi, [l for s in subs for l in s], None, frozen)
        rho = joint @ joint.conj().T
        basis = reduce(np.kron, [_complex(s["eigenvectors"]).reshape(
            len(s["eigenvalues"]), -1).T for s in res["spectra"]])
        expected = np.einsum("dm,dm->m", basis.conj(), rho @ basis).real
        checks.append(_close("probabilities", probs.reshape(-1), np.clip(expected, 0.0, 1.0)))
        checks.append(_close("total", res["total"], float(np.trace(rho).real)))
        return checks

    def _check_check_ssr(self, task, res) -> list:
        space, psi = self.state(task["state"])
        emb = self.embeddings[task["embedding"]]
        kind = task["kind"]
        weights = np.abs(psi) ** 2
        charges = space.charges(kind)
        sectors = {int(q): float(weights[charges == q].sum()) for q in np.unique(charges)}
        eigen = [q for q, w in sectors.items() if weights.sum() - w < 1e-10]
        m = self.component(emb, psi)
        rho = m @ m.conj().T
        sub_space = Space({"modes": [space.modes[space.labels.index(l)]
                                     for l in emb["subsystem_modes"]]})
        q_a = sub_space.charges(kind)
        # A subsystem whose modes all carry charge 0 has a single sector and
        # so no off-block entries: nothing can break the rule, max is 0.
        off_block = np.abs(rho[q_a[:, None] != q_a[None, :]])
        off = float(off_block.max()) if off_block.size else 0.0
        passed = bool(eigen) and off < SSR_TOL
        return [
            ("passes on a charge eigenstate", res["passed"] is passed and passed,
             f"reported {res['passed']}, oracle {passed}"),
            ("reference charge", res["reference_charge"] == (eigen[0] if eigen else None),
             f"{res['reference_charge']} vs {eigen}"),
            _close("off-block max", res["off_block_max"], off),
        ]

    def _check_sample(self, task, res) -> list:
        rho = self._rho(task, task.get("factor", "A"))
        eigs = self._eigs(rho)
        probs = np.append(eigs, max(0.0, 1.0 - float(eigs.sum())))
        outcomes = np.asarray(res["outcomes"])
        freq = np.bincount(outcomes, minlength=len(probs))[:len(probs)] / max(1, len(outcomes))
        spread = 5.0 * np.sqrt(probs * (1 - probs) / max(1, len(outcomes))) + 1e-3
        counts = {str(j): int(np.sum(outcomes == j)) for j in range(len(eigs))}
        counts["annihilated"] = int(np.sum(outcomes == len(eigs)))
        return [
            _close("eigenvalues", res["eigenvalues"], eigs),
            _close("annihilation", res["annihilation_probability"], probs[-1]),
            ("count", len(outcomes) == res["count"] == task.get("count", 100),
             f"{len(outcomes)} outcomes"),
            ("counts", res["counts"] == counts, "counts do not match outcomes"),
            ("frequencies", bool(np.all(np.abs(freq - probs) < spread))
             and outcomes.min() >= 0 and outcomes.max() <= len(eigs),
             f"frequencies {np.round(freq, 3).tolist()}"),
        ]

    def _conserved(self, task) -> tuple[Space, np.ndarray, np.ndarray, float]:
        space, h = self.hamiltonian(task["hamiltonian"])
        _, psi0 = self.state(task["state"])
        return space, h, psi0, float(np.vdot(psi0, h @ psi0).real)

    def _check_evolve(self, task, res) -> list:
        _, h, psi0, energy0 = self._conserved(task)
        amps = _complex(res["amplitudes"])
        checks = [
            _close("norm", res["norm_sq"], 1.0),
            _close("energy conserved", res["energy"], energy0),
            _close("energy of amplitudes", float(np.vdot(amps, h @ amps).real), energy0),
        ]
        exact = self.closed_form(task["hamiltonian"], task["state"], res["t"])
        if exact is not None:
            checks.append(_close("amplitudes", amps, exact))
        return checks

    def _check_trace_trajectory(self, task, res) -> list:
        space, _, psi0, energy0 = self._conserved(task)
        emb = self.embeddings[task["embedding"]]
        times = np.asarray(res["times"])
        traces = np.asarray(res["traces"])
        checks = [
            _close("norms", res["norms"], np.ones_like(times)),
            _close("energies", res["energies"], np.full_like(times, energy0)),
            _close("trace + deficit = 1", traces + np.asarray(res["deficits"]),
                   np.ones_like(times)),
            _close("initial trace", traces[0], np.linalg.norm(self.component(emb, psi0)) ** 2),
        ]
        for kind, values in res["charge_expectations"].items():
            q0 = float(np.sum(np.abs(psi0) ** 2 * space.charges(kind)))
            checks.append(_close(f"{kind} conserved", values, np.full_like(times, q0)))
        if task["hamiltonian"] in ("conversion", "hopping"):
            exact = [np.linalg.norm(self.component(
                emb, self.closed_form(task["hamiltonian"], task["state"], t))) ** 2
                for t in times]
            checks.append(_close("traces", traces, exact))
        return checks
