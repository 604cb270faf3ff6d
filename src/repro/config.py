"""The run configuration: every ambient knob in one table, one precedence rule.

A run is configured in one place.  :data:`KNOBS` lists every ``REPRO_*``
environment variable the package reads, with the
:class:`~repro.machine.Machine` keyword and CLI flag that set the same
thing explicitly, and :func:`ambient` is the only code that reads one of
them::

    explicit argument  >  $REPRO_*  >  off

Off-spellings (:data:`OFF`) at either tier mean "off", so
``REPRO_FAULTS=0`` and ``Machine(4, faults="off")`` both disable injection.
The environment is read when a value is resolved (constructing a
``Machine``, say), never at import.

Each subsystem keeps only its spec *parser* and hands it to
:func:`ambient`; :class:`~repro.machine.Machine` resolves every knob once at
construction and carries the concrete values downstream.  This module
imports nothing from the package (docs/api.md, "Configuration", renders the
table below and a test keeps the two equal).

One variable that is not ours is read here too, because this module is
where the environment is read: :func:`user_cache_dir` follows the XDG
``$XDG_CACHE_HOME`` convention.  It is a place, not a knob — no result
depends on it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

__all__ = ["KNOBS", "OFF", "Knob", "ambient", "is_off", "user_cache_dir"]

#: spellings (case-insensitive) every knob reads as "off".
OFF = ("", "none", "off", "0", "false")


@dataclass(frozen=True)
class Knob:
    """One ambient setting.

    ``name`` is the ``Machine`` keyword (and the :func:`ambient` key),
    ``flag``/``metavar`` the CLI spelling, ``grammar`` the accepted values
    as quoted in errors and the docs table, and ``help`` what the knob does.
    Every knob is off (``None``) when neither an argument nor the
    environment sets it.
    """

    name: str
    env: str
    flag: str | None
    metavar: str | None
    grammar: str
    help: str


KNOBS: dict[str, Knob] = {
    k.name: k
    for k in (
        Knob(
            "faults", "REPRO_FAULTS", "--faults", "SPEC",
            "comma-separated key:value / kind@step tokens, "
            "e.g. seed:3,crash:0.05,limit:2",
            "deterministic fault-injection plan (docs/robustness.md)",
        ),
        Knob(
            "check", "REPRO_CHECK", "--check", "LEVEL",
            "cheap | full | sample:N",
            "runtime correctness checking of every distributed product "
            "(docs/testing.md)",
        ),
        Knob(
            "check_dir", "REPRO_CHECK_DIR", None, None,
            "a directory path",
            "where check-mismatch repro artifacts are written "
            "(off: the current directory)",
        ),
        Knob(
            "elastic", "REPRO_ELASTIC", "--elastic", "MODE",
            "on",
            "in-flight rank-failure recovery: rebuild the pinned adjacency "
            "from its graph on the survivors (docs/robustness.md)",
        ),
        Knob(
            "memory_words", "REPRO_MEMORY", "--memory-words", "WORDS",
            "a positive integer",
            "per-rank memory budget in 8-byte words (off: unlimited); an "
            "overflowing allocation spills cold blocks, and past that the "
            "ladder narrows the sweep (docs/robustness.md)",
        ),
        Knob(
            "spill_dir", "REPRO_SPILL_DIR", "--spill-dir", "DIR",
            "a directory path",
            "directory for spilled block segments "
            "(off: a private temporary directory)",
        ),
    )
}


def is_off(value) -> bool:
    """Is ``value`` one of the shared off-spellings?"""
    return isinstance(value, str) and value.strip().lower() in OFF


def ambient(name: str, explicit=None, parse: Callable = str):
    """Resolve knob ``name``: explicit argument > environment > off.

    ``parse`` turns a spec into the subsystem's value.  An off-spelling at
    either tier, or no setting at all, yields ``None``.  A malformed
    *environment* value raises :class:`ValueError` naming the variable and
    its grammar; errors from an explicit argument propagate as the parser
    raised them.
    """
    knob = KNOBS[name]
    if explicit is not None and not is_off(explicit):
        return parse(explicit)
    raw = os.environ.get(knob.env) if explicit is None else None
    if raw is None or is_off(raw):
        return None
    try:
        return parse(raw.strip())
    except ValueError as exc:
        raise ValueError(
            f"bad ${knob.env}={raw!r}: {exc} (expected {knob.grammar})"
        ) from exc


def user_cache_dir() -> str:
    """The user's cache directory: ``$XDG_CACHE_HOME``, else ``~/.cache``."""
    return os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
