"""Read-only shim: the in-process merge validator under its old pooled name.

``merge-single-pass`` always merges in the calling process: the paper's
single-pass validator is one sequential merge over sorted value sets, and
a worker-pool split of it lost to one process on a 2-core machine on the
only benchmark input whose candidate graph splits.  The name stays only
because the benchmark's layer passes still import it.  The ROADMAP.md item
"[benchmark] Make indbench measure the program as it now runs" deletes
this module.
"""

from __future__ import annotations

from repro.core.candidates import Candidate
from repro.core.merge_single_pass import MergeSinglePassValidator
from repro.core.stats import ValidationResult
from repro.errors import DiscoveryError
from repro.storage.sorted_sets import SpoolDirectory

__all__ = ["PartitionedMergeValidator"]


class PartitionedMergeValidator:
    """:class:`MergeSinglePassValidator` behind the old pooled signature.

    ``workers`` must be at least 1 and is otherwise ignored; ``pool`` is
    never touched, so every result's ``pool`` is ``None``.  Decisions and
    counters are the sequential merge's.
    """

    name = "merge-single-pass"

    def __init__(
        self,
        spool: SpoolDirectory,
        workers: int,
        pool=None,
        skip_scan: bool = False,
    ) -> None:
        if workers < 1:
            raise DiscoveryError(f"workers must be >= 1, got {workers!r}")
        self._validator = MergeSinglePassValidator(spool, skip_scan=skip_scan)

    def validate(self, candidates: list[Candidate]) -> ValidationResult:
        """The sequential merge over ``candidates``."""
        return self._validator.validate(candidates)
