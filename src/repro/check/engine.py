"""The differential :class:`CheckedEngine` and the ``REPRO_CHECK`` grammar.

``CheckedEngine`` wraps any :class:`~repro.core.engine.Engine` and turns
every product into a self-checking one:

* the operands and the result of each ``spgemm`` are validated against the
  structural invariants in :mod:`repro.check.invariants` (deep —
  gathered-consistency included — in ``full`` mode, shallow otherwise);
* the wrapped machine's cost ledger, when there is one, is validated after
  every product;
* a configurable sample of products is *differentially replayed*: the
  operands are gathered (uncharged) and pushed through the sequential
  kernel, and the distributed result must match — coordinates, schema,
  and elementary-product count exactly (``ops`` is partition-invariant,
  so any disagreement is a bug, not noise), float values within
  reassociation tolerance (see
  :func:`~repro.check.replay.matrices_match`);
* on a mismatch the engine shrinks the operands while the divergence
  persists, serializes the minimized case through the NPZ checkpoint
  plumbing, writes a standalone replay script, emits a ``repro.obs``
  event, and raises :class:`CheckFailure` pointing at both artifacts.

Enablement is the ``check`` knob (:mod:`repro.config`; ``off`` / ``cheap``
/ ``full`` / ``sample:N``): ``Machine(p, check="cheap")`` resolves it for a
run, and every :class:`~repro.dist.DistributedEngine` built on that machine
wraps itself.  ``CheckedEngine(engine, level)`` is the explicit wrapper for
an engine without a machine (a sequential one).

When checking is off nothing wraps anything: the hot paths are exactly the
unchecked ones.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.check.invariants import (
    CheckError,
    Violation,
    check_ledger,
    check_matrix,
    check_spmat,
    require_clean,
)
from repro.check.replay import ReplayCase, emit_case, matrices_match
from repro import config
from repro.obs import api as obs
from repro.sparse.spgemm import spgemm
from repro.sparse.spmatrix import SpMat

__all__ = [
    "CheckConfig",
    "CheckFailure",
    "CheckedEngine",
    "resolve_check_config",
]


@dataclass(frozen=True)
class CheckConfig:
    """Resolved checking level.

    ``mode`` is ``"cheap"`` (shallow invariants, no replay), ``"full"``
    (deep invariants, replay every product), or ``"sample"`` (shallow
    invariants, replay every ``sample``-th product).  ``sample == 0`` means
    never replay.
    """

    mode: str
    sample: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("cheap", "full", "sample"):
            raise ValueError(f"unknown check mode {self.mode!r}")
        if self.sample < 0:
            raise ValueError(f"sample must be non-negative, got {self.sample}")

    @property
    def deep(self) -> bool:
        return self.mode == "full"

    def describe(self) -> str:
        if self.mode == "sample":
            return f"sample:{self.sample}"
        return self.mode


def resolve_check_config(
    spec: "CheckConfig | str | None" = None,
) -> CheckConfig | None:
    """Normalize a check specification; ``None`` means checking is off.

    Accepts a :class:`CheckConfig` (passed through), a spec string
    (``"cheap"``, ``"full"``, ``"sample:N"``, or an off-spelling), or
    ``None`` for the ambient ``check`` knob (:mod:`repro.config`).
    """
    if isinstance(spec, CheckConfig):
        return spec
    return config.ambient("check", spec, _parse_spec)


def _parse_spec(spec: str) -> CheckConfig:
    if not isinstance(spec, str):
        raise TypeError(
            f"check must be a CheckConfig, a spec string, or None, got {spec!r}"
        )
    s = spec.strip().lower()
    if s == "cheap":
        return CheckConfig("cheap")
    if s == "full":
        return CheckConfig("full", sample=1)
    if s.startswith("sample:"):
        try:
            n = int(s.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad sample count in check spec {spec!r}") from None
        if n <= 0:
            raise ValueError(f"sample count must be positive, got {n}")
        return CheckConfig("sample", sample=n)
    raise ValueError(
        f"unknown check spec {spec!r} (expected off/cheap/full/sample:N)"
    )


class CheckFailure(CheckError):
    """A checked product failed; points at the emitted repro artifacts."""

    def __init__(
        self,
        violations: list[Violation],
        note: str = "",
        *,
        case_path: str | None = None,
        script_path: str | None = None,
    ) -> None:
        super().__init__(violations, note)
        self.case_path = case_path
        self.script_path = script_path


def _subset(mat: SpMat, keep: np.ndarray) -> SpMat:
    idx = np.flatnonzero(keep)
    vals = {name: col[idx] for name, col in mat.vals.items()}
    return SpMat(mat.nrows, mat.ncols, mat.rows[idx], mat.cols[idx], vals, mat.monoid)


def _fresh(engine, mat: SpMat):
    """Rebuild ``mat`` in ``engine``'s representation (fresh arrays)."""
    return engine.matrix(
        mat.nrows,
        mat.ncols,
        mat.rows.copy(),
        mat.cols.copy(),
        {name: col.copy() for name, col in mat.vals.items()},
        mat.monoid,
    )


class CheckedEngine:
    """An :class:`~repro.core.engine.Engine` that distrusts its inner engine.

    Everything outside the protocol surface (``machine``, ``recover``,
    ``plan_log``, …) is delegated via ``__getattr__``, so a wrapped engine
    drops into any code that feature-tests with ``getattr``.
    """

    def __init__(self, engine, check: "CheckConfig | str" = "cheap") -> None:
        cfg = resolve_check_config(check)
        if cfg is None:
            # Explicitly constructing a CheckedEngine means the caller wants
            # checking; "off" degenerates to the cheapest level, not to a
            # silent pass-through.
            cfg = CheckConfig("cheap")
        self.engine = engine
        self.config = cfg
        self.products = 0
        self.stats = {"validated": 0, "replayed": 0, "mismatches": 0}

    def __getattr__(self, name: str):
        if name == "engine":  # guard: unpickling calls __getattr__ pre-init
            raise AttributeError(name)
        return getattr(self.engine, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CheckedEngine({self.engine!r}, check={self.config.describe()!r})"

    # -- validation helpers --------------------------------------------------

    def _validate(self, mat, site: str) -> None:
        require_clean(check_matrix(mat, site=site, deep=self.config.deep))
        self.stats["validated"] += 1

    def _validate_ledger(self) -> None:
        machine = getattr(self.engine, "machine", None)
        if machine is not None:
            require_clean(check_ledger(machine))

    def _local(self, mat) -> SpMat:
        """A node-local view of ``mat`` without touching the ledger or the
        memory budget: a spilled tile is read from its segment and stays
        spilled."""
        if isinstance(mat, SpMat):
            return mat
        return mat.gather(charge=False, peek=True)

    # -- the Engine protocol -------------------------------------------------

    def matrix(self, nrows, ncols, rows, cols, vals, monoid):
        out = self.engine.matrix(nrows, ncols, rows, cols, vals, monoid)
        self._validate(out, "matrix")
        return out

    def adjacency(self, graph):
        out = self.engine.adjacency(graph)
        self._validate(out, "adjacency")
        return out

    def gather(self, mat) -> SpMat:
        out = self.engine.gather(mat)
        require_clean(check_spmat(out, site="gather"))
        self._validate_ledger()
        return out

    def spgemm(self, a, b, spec, *, mask=None):
        self._validate(a, "spgemm.operand_a")
        self._validate(b, "spgemm.operand_b")
        out, ops = self.engine.spgemm(a, b, spec, mask=mask)
        self.products += 1
        self._validate(out, "spgemm.result")
        self._validate_ledger()
        if self._should_replay():
            self._replay(a, b, spec, out, ops, mask)
        return out, ops

    def recover(self) -> None:
        recover = getattr(self.engine, "recover", None)
        if recover is not None:
            recover()

    # -- differential replay -------------------------------------------------

    def _should_replay(self) -> bool:
        if self.config.sample <= 0:
            return False
        machine = getattr(self.engine, "machine", None)
        if machine is not None and getattr(machine, "_fault_hook", None) is not None:
            # injected corruption *intends* to diverge from the reference;
            # replaying it would report the fault plan, not a bug.
            return False
        return self.products % self.config.sample == 0

    def _replay(self, a, b, spec, out, ops, mask=None) -> None:
        ga, gb, gout = self._local(a), self._local(b), self._local(out)
        gmask = None if mask is None else self._local(mask)
        # reference via the *generic* kernel: the dispatch tier's fast paths
        # are among the things differential replay must be able to indict
        ref = spgemm(ga, gb, spec, mask=gmask, kernel="generic")
        self.stats["replayed"] += 1
        if matrices_match(ref.matrix, gout) and int(ref.ops) == int(ops):
            return
        self.stats["mismatches"] += 1
        self._fail(ga, gb, spec, gout, int(ops), ref, gmask)

    def _diverges(self, ca: SpMat, cb: SpMat, spec, mask):
        """Re-run a candidate through the inner engine.

        Returns ``(got, ops)`` when the candidate still diverges from the
        sequential kernel (a crash counts: it yields an empty ``got`` and
        ``ops = -1``), or ``None`` when the candidate behaves.
        """
        try:
            dmask = None if mask is None else _fresh(self.engine, mask)
            got, ops = self.engine.spgemm(
                _fresh(self.engine, ca),
                _fresh(self.engine, cb),
                spec,
                mask=dmask,
            )
            gout = self._local(got)
        except Exception:
            return SpMat.empty(ca.nrows, cb.ncols, spec.monoid), -1
        ref = spgemm(ca, cb, spec, mask=mask, kernel="generic")
        if matrices_match(ref.matrix, gout) and int(ref.ops) == int(ops):
            return None
        return gout, int(ops)

    def _minimize(self, ga, gb, spec, got, ops, mask, budget: int = 48):
        """Greedy ddmin-style shrink: drop entry blocks while still diverging."""
        a, b = ga, gb
        for sel in ("a", "b"):
            mat = a if sel == "a" else b
            chunk = max(1, mat.nnz // 2)
            while chunk >= 1 and budget > 0:
                i, shrunk = 0, False
                while i < mat.nnz and budget > 0:
                    keep = np.ones(mat.nnz, dtype=bool)
                    keep[i : i + chunk] = False
                    cand = _subset(mat, keep)
                    ca, cb = (cand, b) if sel == "a" else (a, cand)
                    budget -= 1
                    res = self._diverges(ca, cb, spec, mask)
                    if res is not None:
                        mat = cand
                        if sel == "a":
                            a = cand
                        else:
                            b = cand
                        got, ops = res
                        shrunk = True  # stay at i: new entries shifted in
                    else:
                        i += chunk
                if not shrunk:
                    chunk //= 2
        return a, b, got, ops

    def _fail(self, ga, gb, spec, gout, ops, ref, mask=None) -> None:
        if obs.enabled():
            obs.complete(
                "check.mismatch",
                cat="check",
                args={
                    "spec": spec.name,
                    "product": self.products,
                    "expected_nnz": ref.matrix.nnz,
                    "got_nnz": gout.nnz,
                    "expected_ops": int(ref.ops),
                    "got_ops": ops,
                },
            )
        try:
            ma, mb, mgot, mops = self._minimize(ga, gb, spec, gout, ops, mask)
        except Exception:  # minimization is best-effort, never load-bearing
            ma, mb, mgot, mops = ga, gb, gout, ops
        case = ReplayCase(
            a=ma,
            b=mb,
            spec_name=spec.name,
            got=mgot,
            got_ops=mops,
            info={
                "engine": type(self.engine).__name__,
                "product_index": self.products,
                "original_nnz": {"a": ga.nnz, "b": gb.nnz},
                "minimized_nnz": {"a": ma.nnz, "b": mb.nnz},
            },
            mask=mask,
        )
        case_path = script_path = None
        artifact_note = ""
        directory = config.ambient("check_dir") or os.getcwd()
        try:
            case_path, script_path = emit_case(
                case, directory, f"check-case-{self.products}"
            )
            artifact_note = f"; repro script: {script_path}"
        except Exception as exc:  # e.g. an unregistered ad-hoc spec/monoid
            artifact_note = f"; no repro artifact ({exc})"
        violation = Violation(
            "spgemm.replay",
            "differential",
            f"product {self.products} ({spec.name}) diverges from the "
            f"sequential kernel",
            {
                "expected_nnz": ref.matrix.nnz,
                "got_nnz": gout.nnz,
                "expected_ops": int(ref.ops),
                "got_ops": ops,
            },
        )
        raise CheckFailure(
            [violation],
            f"differential replay failed{artifact_note}",
            case_path=case_path,
            script_path=script_path,
        )


if TYPE_CHECKING:
    from repro.core.engine import Engine, SequentialEngine

    # static proof that CheckedEngine satisfies the Engine protocol
    _CHECKED_IS_ENGINE: Engine = CheckedEngine(SequentialEngine())
