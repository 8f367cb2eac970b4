"""The unified diagnostic model for the whole modeling pipeline.

Every stage — lexing, parsing, semantic validation, lint, BET
construction, projection — reports problems as :class:`Diagnostic`
records collected on a :class:`DiagnosticSink` instead of (or in
addition to) raising.  A diagnostic carries:

* a **stable error code** (``SKOP101`` …) so tooling can match on the
  class of problem rather than the message text;
* a **severity** (``error`` / ``warning`` / ``info``);
* a **source span** — file name, 1-based line and column — plus the
  offending source line as a snippet when available;
* an optional **fix hint**;
* the **phase** that produced it (``parse`` / ``semantic`` / ``lint`` /
  ``build`` / ``project``).

The numbering scheme (see :data:`CODES`):

=========  ==================================================
``1xx``    lexical and syntactic errors (``.skop`` text)
``2xx``    semantic/structural errors (BST validation)
``3xx``    lint findings (modeling-quality warnings)
``4xx``    BET-build faults (quarantine causes)
``5xx``    projection/numeric faults (poisoned blocks)
``6xx``    resource-budget violations
``7xx``    distributed-execution faults (shards, workers)
=========  ==================================================

Diagnostics are plain frozen dataclasses: picklable (they cross the
sweep engine's process boundary inside quarantined BETs), hashable,
orderable by source position, and JSON-round-trippable via
:meth:`Diagnostic.as_dict` / :func:`diagnostic_from_dict`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

#: severity levels, most severe first (order is used for sorting/summary)
SEVERITIES = ("error", "warning", "info")

#: stable code registry: code -> one-line description.  Codes are append
#: only; never renumber a released code (downstream tooling matches them).
CODES: Dict[str, str] = {
    # -- 1xx: lexical / syntactic ---------------------------------------
    "SKOP101": "unexpected character in skeleton source",
    "SKOP102": "malformed statement (unexpected or missing token)",
    "SKOP103": "unclosed block at end of file",
    "SKOP104": "'end' with no open block",
    "SKOP105": "statement outside of a function",
    "SKOP106": "unknown statement word",
    "SKOP107": "malformed expression",
    "SKOP108": "misplaced block keyword (else/case/default)",
    # -- 2xx: semantic --------------------------------------------------
    "SKOP201": "duplicate function definition",
    "SKOP202": "call to an undefined function",
    "SKOP203": "call arity mismatch",
    "SKOP204": "break/continue outside of a loop",
    "SKOP205": "program has no entry function",
    # -- 3xx: lint ------------------------------------------------------
    "SKOP301": "unprofiled while loop (W001)",
    "SKOP302": "branch probabilities sum above 1 (W002)",
    "SKOP303": "placeholder branch probability (W003)",
    "SKOP304": "function never called from main (W004)",
    "SKOP305": "loop body models no cost (W005)",
    "SKOP306": "undeclared array reference (W006)",
    "SKOP307": "unused function parameter (W007)",
    "SKOP308": "constant empty loop range (W008)",
    "SKOP309": "early exit inside forall (W009)",
    "SKOP310": "if/else chain probabilities sum above 1 (W010)",
    "SKOP311": "while trip count tracks no loop-varying variable (W011)",
    # -- 4xx: BET build -------------------------------------------------
    "SKOP401": "unbound variable during BET construction",
    "SKOP402": "probabilistic context explosion",
    "SKOP403": "recursion depth limit exceeded",
    "SKOP404": "expression evaluation fault",
    "SKOP405": "model-structure fault",
    "SKOP406": "entry parameters not bound",
    # -- 5xx: projection ------------------------------------------------
    "SKOP501": "non-finite block projection (poisoned)",
    # -- 6xx: resource budgets ------------------------------------------
    "SKOP601": "expression exceeds the size/depth budget",
    "SKOP602": "build exceeded its wall-clock budget",
    "SKOP603": "context count exceeded the budget ceiling",
    # -- 7xx: distributed execution -------------------------------------
    "SKOP701": "corrupt sweep checkpoint salvaged from last valid "
               "snapshot",
    "SKOP702": "sweep worker crashed; shards reassigned",
    "SKOP703": "shard quarantined after retry exhaustion",
    "SKOP704": "corrupt shard result envelope detected",
    "SKOP705": "worker heartbeat lost; declared dead",
    "SKOP706": "checkpoint written under a different cache model",
    # -- 71x: analysis service (admission, breaker, streaming) ----------
    "SKOP710": "request shed by admission control (queue full)",
    "SKOP711": "request deadline exceeded; partial results returned",
    "SKOP712": "malformed or oversized service request rejected",
    "SKOP713": "circuit breaker open; degraded constant-cache answer",
    "SKOP714": "slow client stalled its send buffer; disconnected",
    "SKOP715": "server draining; in-flight sweep checkpointed",
}

#: legacy lint code (W001…) -> stable diagnostic code
LINT_CODE_MAP = {
    "W001": "SKOP301", "W002": "SKOP302", "W003": "SKOP303",
    "W004": "SKOP304", "W005": "SKOP305", "W006": "SKOP306",
    "W007": "SKOP307", "W008": "SKOP308", "W009": "SKOP309",
    "W010": "SKOP310", "W011": "SKOP311",
}


@dataclass(frozen=True)
class Diagnostic:
    """One problem found anywhere in the pipeline.

    ``line``/``column`` are 1-based; 0 means unknown.  ``site`` is the
    skeleton-level ``function@line`` identifier when the diagnostic is
    attached to a statement rather than raw text.
    """

    code: str
    message: str
    severity: str = "error"
    source_name: str = "<string>"
    line: int = 0
    column: int = 0
    site: str = ""
    snippet: str = ""
    hint: str = ""
    phase: str = ""

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    # -- presentation ---------------------------------------------------
    def render(self, show_snippet: bool = True) -> str:
        """GCC-style one-to-three line rendering with caret and hint."""
        where = self.source_name
        if self.line:
            where += f":{self.line}"
            if self.column:
                where += f":{self.column}"
        head = f"{where}: {self.severity}[{self.code}]: {self.message}"
        lines = [head]
        if show_snippet and self.snippet:
            shown = self.snippet.rstrip("\n")
            lines.append(f"    {shown}")
            if self.column:
                lines.append("    " + " " * (self.column - 1) + "^")
        if self.hint:
            lines.append(f"    hint: {self.hint}")
        return "\n".join(lines)

    def __str__(self):
        return self.render(show_snippet=False)

    @property
    def sort_key(self):
        return (self.source_name, self.line, self.column,
                SEVERITIES.index(self.severity), self.code)

    # -- serialization --------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready payload (stable keys; round-trips through
        :func:`diagnostic_from_dict`)."""
        return {
            "code": self.code,
            "message": self.message,
            "severity": self.severity,
            "source_name": self.source_name,
            "line": self.line,
            "column": self.column,
            "site": self.site,
            "snippet": self.snippet,
            "hint": self.hint,
            "phase": self.phase,
        }


def diagnostic_from_dict(payload: Dict[str, Any]) -> Diagnostic:
    """Rebuild a :class:`Diagnostic` from :meth:`Diagnostic.as_dict`."""
    known = {f: payload.get(f, Diagnostic.__dataclass_fields__[f].default)
             for f in Diagnostic.__dataclass_fields__}
    return Diagnostic(**known)


class DiagnosticSink:
    """An append-only collection of diagnostics.

    Every recovery-mode pipeline result carries one.  Sinks merge
    (``extend``), filter by severity, and render a compact report.  A
    ``limit`` bounds memory on hostile inputs: once full, further
    diagnostics are counted (``dropped``) but not stored.

    Sinks are safe for concurrent producers: the analysis service shares
    one sink across request tasks and worker threads, so the append /
    limit / ``dropped`` accounting happens under a lock and every query
    reads a consistent snapshot.  The lock is dropped on pickling
    (diagnostics travel inside quarantined BETs across the sweep
    engine's process boundary) and re-created on unpickling.
    """

    def __init__(self, limit: int = 1000):
        self.limit = limit
        self.dropped = 0
        self._items: List[Diagnostic] = []
        self._lock = threading.Lock()

    # -- pickling (the lock itself cannot cross a process boundary) -----
    def __getstate__(self):
        with self._lock:
            return {"limit": self.limit, "dropped": self.dropped,
                    "_items": list(self._items)}

    def __setstate__(self, state):
        self.limit = state["limit"]
        self.dropped = state["dropped"]
        self._items = list(state["_items"])
        self._lock = threading.Lock()

    # -- collection -----------------------------------------------------
    def add(self, diagnostic: Diagnostic) -> Diagnostic:
        with self._lock:
            if len(self._items) < self.limit:
                self._items.append(diagnostic)
            else:
                self.dropped += 1
        return diagnostic

    def emit(self, code: str, message: str, **fields) -> Diagnostic:
        """Build-and-add convenience; unknown codes are a programming
        error, caught here rather than at render time."""
        if code not in CODES:
            raise KeyError(f"unregistered diagnostic code {code!r}")
        return self.add(Diagnostic(code=code, message=message, **fields))

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        for diagnostic in diagnostics:
            self.add(diagnostic)

    # -- queries --------------------------------------------------------
    def snapshot(self) -> List[Diagnostic]:
        """Consistent copy of the stored diagnostics (safe to iterate
        while other threads keep appending)."""
        with self._lock:
            return list(self._items)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.snapshot())

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def __bool__(self) -> bool:
        with self._lock:
            return bool(self._items)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.snapshot() if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.snapshot() if d.severity == "warning"]

    def has_errors(self) -> bool:
        return any(d.severity == "error" for d in self.snapshot())

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.snapshot() if d.code == code]

    # -- presentation / serialization -----------------------------------
    def sorted(self) -> List[Diagnostic]:
        return sorted(self.snapshot(), key=lambda d: d.sort_key)

    def render(self, show_snippets: bool = True) -> str:
        lines = [d.render(show_snippets) for d in self.sorted()]
        counts = self.summary()
        if counts:
            lines.append(counts)
        return "\n".join(lines)

    def summary(self) -> str:
        n_err, n_warn = len(self.errors), len(self.warnings)
        parts = []
        if n_err:
            parts.append(f"{n_err} error{'s' if n_err != 1 else ''}")
        if n_warn:
            parts.append(f"{n_warn} warning{'s' if n_warn != 1 else ''}")
        if self.dropped:
            parts.append(f"{self.dropped} dropped")
        return ", ".join(parts)

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [d.as_dict() for d in self.sorted()]

    def __repr__(self):
        return (f"<DiagnosticSink {len(self)} "
                f"({self.summary() or 'empty'})>")
