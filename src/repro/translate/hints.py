"""Developer-supplied input hints (paper Sec. III-B).

The paper's branch statistics are "encoded as expressions of the input data,
specifically the input data sizes and distribution of values, which are
summarized in a hint file provided by the developers".  An
:class:`InputHints` instance is that hint file: default bindings for the
translated program's input variables (array lengths, problem sizes) and the
sample arguments the branch profiler should run the original code with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


@dataclass
class InputHints:
    """Input sizes and profiling arguments for a translated program.

    Attributes
    ----------
    sizes:
        Name → numeric value bindings emitted as ``param`` defaults in the
        generated skeleton (e.g. ``{"n": 1024, "len_grid": 4096}``).
        Lengths of array arguments are referenced by translated code as
        ``len_<name>``.
    profile_args, profile_kwargs:
        The concrete arguments :func:`~repro.translate.profile_branches`
        calls the entry function with.  Should be representative of the
        production input — the statistics are reused across machines but
        not across workload regimes.
    """

    sizes: Dict[str, float] = field(default_factory=dict)
    profile_args: Tuple = ()
    profile_kwargs: Dict[str, Any] = field(default_factory=dict)
