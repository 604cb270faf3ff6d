"""repro.check — correctness tooling: invariant validators, the differential
:class:`CheckedEngine`, and the shared property-test strategy library.

Three parts:

* :mod:`repro.check.invariants` — structural validators for the objects the
  paper's argument rests on: :func:`check_spmat` (canonical COO form),
  :func:`check_distmat` (block distribution consistency), and
  :func:`check_ledger` (α-β charge accounting).  Each returns a list of
  structured :class:`Violation` rows instead of just raising, so callers can
  report, filter, or assert.
* :mod:`repro.check.engine` — :class:`CheckedEngine`, an
  :class:`~repro.core.engine.Engine` wrapper that validates every
  ``spgemm``'s operands and results and differentially replays a
  configurable sample of products against the sequential kernel.  Enabled
  by the ``check`` knob (:mod:`repro.config`):
  ``off``/``cheap``/``full``/``sample:N``.
* :mod:`repro.check.strategies` — hypothesis strategies shared by the test
  suite (monoids, sparse matrices, graphs, grids, matmul specs).  Imported
  lazily because it requires ``hypothesis``, which is a test-only extra.

See ``docs/testing.md`` for the full tour.
"""

from repro.check.engine import (
    CheckConfig,
    CheckedEngine,
    CheckFailure,
    resolve_check_config,
)
from repro.check.invariants import (
    CheckError,
    Violation,
    check_distmat,
    check_ledger,
    check_matrix,
    check_spmat,
    require_clean,
)
from repro.check.replay import ReplayCase, ReplayReport, load_case, replay

__all__ = [
    "CheckConfig",
    "CheckedEngine",
    "CheckError",
    "CheckFailure",
    "ReplayCase",
    "ReplayReport",
    "Violation",
    "check_distmat",
    "check_ledger",
    "check_matrix",
    "check_spmat",
    "load_case",
    "replay",
    "require_clean",
    "resolve_check_config",
]
