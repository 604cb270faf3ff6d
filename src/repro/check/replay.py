"""Repro-case serialization and replay for differential check failures.

When :class:`~repro.check.engine.CheckedEngine` catches a product whose
distributed result diverges from the sequential kernel, it persists the
(minimized) operands, the divergent result, and the spec name into a single
``.npz`` archive — written through the same atomic-NPZ plumbing as the
fault-tolerance checkpoints — plus a tiny generated Python script.  Running
the script (or calling :func:`replay` on :func:`load_case`) recomputes the
sequential reference from the stored operands and compares it against the
*stored* divergent result, so the artifact reproduces the divergence on its
own, even after the buggy code is gone.

Only monoids and specs the library itself defines can be serialized (the
registries below); a case built from an unregistered ad-hoc monoid raises
at emission time rather than producing an unreplayable artifact.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro.algebra.matmul import MatMulSpec
from repro.algebra.monoid import Monoid
from repro.sparse.spgemm import spgemm
from repro.sparse.spmatrix import SpMat

__all__ = [
    "ReplayCase",
    "ReplayReport",
    "matrices_match",
    "save_case",
    "load_case",
    "replay",
    "emit_case",
]


def matrices_match(
    ref: SpMat, got: SpMat, *, rtol: float = 1e-9, atol: float = 1e-12
) -> bool:
    """Exact structure, near-exact values.

    Shapes, monoid schema, and coordinates must match exactly.  Value
    fields built by order-invariant reductions (min, max) match bit-for-bit
    too, but a replicated distributed reduction sums '+'-accumulated fields
    (e.g. Brandes' partial dependencies) in a different order than the
    sequential loop, which legitimately shifts them by an ulp — hence the
    tight tolerance on float fields rather than bit equality.
    """
    if ref.equals(got):
        return True
    if (ref.nrows, ref.ncols) != (got.nrows, got.ncols):
        return False
    if ref.monoid.field_spec != got.monoid.field_spec:
        return False
    if not (
        np.array_equal(ref.rows, got.rows) and np.array_equal(ref.cols, got.cols)
    ):
        return False
    for name, dtype in ref.monoid.field_spec:
        a, b = ref.vals[name], got.vals[name]
        if np.issubdtype(dtype, np.floating):
            if not np.allclose(a, b, rtol=rtol, atol=atol):
                return False
        elif not np.array_equal(a, b):
            return False
    return True

#: version 2 added the optional output mask, with a complement flag beside
#: the spec; version 3 reads the mask rule from the spec alone.  Version-1
#: (no mask) and version-2 archives still load.
CASE_VERSION = 3


# ---------------------------------------------------------------------------
# registries: names <-> the library's own monoids and specs
# ---------------------------------------------------------------------------


def _monoid_registry() -> dict[str, Monoid]:
    from repro.algebra.centpath import CENTPATH
    from repro.algebra.monoid import MaxMonoid, MinMonoid, PlusMonoid
    from repro.algebra.multpath import MULTPATH

    return {
        "PlusMonoid": PlusMonoid(),
        "MinMonoid": MinMonoid(),
        "MaxMonoid": MaxMonoid(),
        "MultpathMonoid": MULTPATH,
        "CentpathMonoid": CENTPATH,
    }


def _spec_registry() -> dict[str, MatMulSpec]:
    """The replayable specs by name: the very objects the apps and
    :mod:`repro.core.specs` multiply with, so a replayed case is recomputed
    with the operator its run used (``bf`` is an alias)."""
    from repro.algebra.semiring import MAX_MIN, TROPICAL
    from repro.apps import bfs, connected, sssp, triangles, widest_path
    from repro.baselines.combblas_bc import _FORWARD
    from repro.core import specs as core

    specs = [
        TROPICAL.matmul_spec(), MAX_MIN.matmul_spec(), _FORWARD,
        core.BELLMAN_FORD_SPEC, core.BFS_LEVEL_SPEC, core.BRANDES_SPEC, core.SUCCESSOR_SPEC,
    ]
    specs += [app._SPEC for app in (bfs, connected, sssp, triangles, widest_path)]
    reg = {spec.name: spec for spec in specs}
    reg["bf"] = core.BELLMAN_FORD_SPEC
    return reg


def resolve_spec(name: str) -> MatMulSpec:
    """Look up a serializable :class:`MatMulSpec` by name."""
    reg = _spec_registry()
    if name not in reg:
        raise KeyError(
            f"spec {name!r} is not replayable; known: {sorted(set(reg))}"
        )
    return reg[name]


def _complemented(name: str) -> str:
    """The registered complemented operator with ``name``'s monoid and
    ``f``: what a version-2 archive's complement flag made of it."""
    spec = resolve_spec(name)
    for key, cand in _spec_registry().items():
        if cand.mask_rule == "complement" and (cand.monoid, cand.f) == (spec.monoid, spec.f):
            return key
    raise KeyError(f"spec {name!r} has no replayable complemented operator")


def _monoid_name(monoid: Monoid) -> str:
    name = type(monoid).__name__
    if name not in _monoid_registry():
        raise KeyError(
            f"monoid {name!r} is not replayable; known: "
            f"{sorted(_monoid_registry())}"
        )
    return name


# ---------------------------------------------------------------------------
# the case
# ---------------------------------------------------------------------------


@dataclass
class ReplayCase:
    """One divergent product: operands, spec, and the wrong answer."""

    a: SpMat
    b: SpMat
    spec_name: str
    got: SpMat  #: the divergent product matrix, as the checked engine saw it
    got_ops: int  #: the divergent elementary-product count
    info: dict = field(default_factory=dict)  #: engine description, indices…
    mask: SpMat | None = None  #: structural output mask, when the product had one

    @property
    def spec(self) -> MatMulSpec:
        return resolve_spec(self.spec_name)


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying a case against the sequential kernel."""

    matches: bool
    matrix_match: bool
    ops_match: bool
    expected_nnz: int
    got_nnz: int
    expected_ops: int
    got_ops: int
    info: dict

    def describe(self) -> str:
        verdict = (
            "MATCH (stored result now agrees with the sequential kernel)"
            if self.matches
            else "DIVERGED (stored result disagrees with the sequential kernel)"
        )
        lines = [
            verdict,
            f"  matrix: stored nnz={self.got_nnz}, "
            f"sequential nnz={self.expected_nnz}, "
            f"equal={self.matrix_match}",
            f"  ops:    stored={self.got_ops}, "
            f"sequential={self.expected_ops}, equal={self.ops_match}",
        ]
        for key, val in sorted(self.info.items()):
            lines.append(f"  {key}: {val}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# (de)serialization — one npz per case, written atomically
# ---------------------------------------------------------------------------


def _pack(mat: SpMat, prefix: str, arrays: dict, meta: dict) -> None:
    arrays[f"{prefix}_rows"] = mat.rows
    arrays[f"{prefix}_cols"] = mat.cols
    for name in mat.monoid.field_names:
        arrays[f"{prefix}_f_{name}"] = mat.vals[name]
    meta[prefix] = {
        "nrows": mat.nrows,
        "ncols": mat.ncols,
        "monoid": _monoid_name(mat.monoid),
        "fields": list(mat.monoid.field_names),
    }


def _unpack(archive, prefix: str, meta: dict) -> SpMat:
    m = meta[prefix]
    monoid = _monoid_registry()[m["monoid"]]
    vals = {name: archive[f"{prefix}_f_{name}"] for name in m["fields"]}
    return SpMat(
        m["nrows"],
        m["ncols"],
        archive[f"{prefix}_rows"],
        archive[f"{prefix}_cols"],
        vals,
        monoid,
    )


def save_case(case: ReplayCase, path) -> None:
    """Persist a case to one ``.npz`` archive (atomic temp-file write)."""
    from repro.faults.checkpoint import atomic_save_npz

    resolve_spec(case.spec_name)  # fail fast on unreplayable specs
    arrays: dict = {}
    meta: dict = {
        "version": CASE_VERSION,
        "spec": case.spec_name,
        "got_ops": int(case.got_ops),
        "info": case.info,
    }
    _pack(case.a, "a", arrays, meta)
    _pack(case.b, "b", arrays, meta)
    _pack(case.got, "g", arrays, meta)
    if case.mask is not None:
        _pack(case.mask, "m", arrays, meta)
    atomic_save_npz(path, arrays, meta=meta)


def load_case(path) -> ReplayCase:
    """Load a case previously written by :func:`save_case`."""
    with np.load(os.fspath(path)) as archive:
        meta = json.loads(bytes(archive["meta"]).decode())
        if meta.get("version") not in (1, 2, CASE_VERSION):
            raise ValueError(
                f"unsupported repro-case version {meta.get('version')}"
            )
        spec_name = meta["spec"]
        if meta.get("mask_complement"):  # a version-2 archive's complement flag
            spec_name = _complemented(spec_name)
        return ReplayCase(
            a=_unpack(archive, "a", meta),
            b=_unpack(archive, "b", meta),
            spec_name=spec_name,
            got=_unpack(archive, "g", meta),
            got_ops=int(meta["got_ops"]),
            info=dict(meta.get("info", {})),
            mask=_unpack(archive, "m", meta) if "m" in meta else None,
        )


def replay(case: ReplayCase) -> ReplayReport:
    """Recompute the sequential reference and compare to the stored result.

    The reference always runs the *generic* kernel: the dispatch tier's fast
    paths are among the things a replay must be able to indict.
    """
    ref = spgemm(
        case.a,
        case.b,
        case.spec,
        mask=case.mask,
        kernel="generic",
    )
    matrix_match = matrices_match(ref.matrix, case.got)
    ops_match = int(ref.ops) == int(case.got_ops)
    return ReplayReport(
        matches=matrix_match and ops_match,
        matrix_match=matrix_match,
        ops_match=ops_match,
        expected_nnz=ref.matrix.nnz,
        got_nnz=case.got.nnz,
        expected_ops=int(ref.ops),
        got_ops=int(case.got_ops),
        info=case.info,
    )


_SCRIPT = '''"""Replay a divergent SpGEMM captured by repro.check.

Exit status 0 means the stored result now matches the sequential kernel;
1 means the divergence reproduces.
"""
from repro.check.replay import load_case, replay

report = replay(load_case({case!r}))
print(report.describe())
raise SystemExit(0 if report.matches else 1)
'''


def emit_case(case: ReplayCase, directory, stem: str) -> tuple[str, str]:
    """Write ``<stem>.npz`` + ``<stem>.py`` under ``directory``.

    Returns ``(case_path, script_path)``.  The generated script is
    self-contained: ``python <stem>.py`` replays the case and exits 1 while
    the divergence still reproduces.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    case_path = os.path.join(directory, f"{stem}.npz")
    script_path = os.path.join(directory, f"{stem}.py")
    save_case(case, case_path)
    with open(script_path, "w") as fh:
        fh.write(_SCRIPT.format(case=os.path.abspath(case_path)))
    return case_path, script_path
