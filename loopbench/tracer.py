"""Spans around the layer calls of the cqd loop, recorded from outside cqd.

The tracer replaces, for the length of a ``with`` block, the public
functions that ``cqd.optimizer`` calls (and a few they call in turn) by
wrappers that add up wall time and calls per span.  Time spent inside
nested spans counts toward their parents too; ``top_ns`` holds only the
outermost spans, so the loop's self time is its wall time minus
``top_ns``.  ``numpy.linalg.svd`` is wrapped to count calls and the bytes
of the matrices passed in.
"""
from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# (owner, attribute, span).  Owners are looked up by CqdApi.owners().
LAYERS = (
    ("optimizer", "tucker_to_tensor", "densify"),
    ("optimizer", "hosvd", "hosvd"),
    ("optimizer", "compress_within_budget", "compress"),
    ("spectral_masking", "mask_factorization", "mask"),
    ("optimizer", "encode", "encode"),
    ("optimizer", "ensemble_infer", "ensemble"),
    ("SimulatedOracle", "infer", "infer"),
    ("oracle_sim", "decode", "decode"),
    ("oracle_sim", "aggregate", "aggregate"),
    ("optimizer", "riemannian_grad_tucker", "rgrad"),
    ("optimizer", "tangent_norm_sq", "tangent_norm"),
    ("optimizer", "tucker_retract", "retract"),
    ("numpy.linalg", "svd", "svd"),
)


class Tracer:
    """Per-span wall time and call counts, plus what the output checks read.

    ``queries`` keeps (case, iteration, query bytes) for the first draw of
    every iteration, as the oracle received it.  ``payloads`` keeps
    (case, aggregated payload) when m > 1, for the ensemble variance check.
    """

    def __init__(self, m: int):
        self.m = m
        self.case = 0
        self.ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.top_ns = 0
        self.svd_bytes = 0
        self.queries: list[tuple[int, int, bytes]] = []
        self.payloads: list[tuple[int, object]] = []
        self._depth = 0
        self._record = {
            "infer": self._record_query,
            "svd": self._record_svd,
            "ensemble": self._record_payload if m > 1 else None,
        }

    def _record_query(self, args, result) -> None:
        _oracle, query, draw_index = args
        if draw_index % self.m == 0:
            self.queries.append((self.case, draw_index // self.m, query))

    def _record_svd(self, args, result) -> None:
        self.svd_bytes += args[0].nbytes  # shape times itemsize, as computed

    def _record_payload(self, args, result) -> None:
        self.payloads.append((self.case, result.payload))

    def query_bytes_per_iter(self) -> float:
        return sum(len(q) for _, _, q in self.queries) / max(len(self.queries), 1)

    def _wrap(self, span: str, fn):
        record = self._record.get(span)

        def traced(*args, **kwargs):
            self._depth += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self._depth -= 1
                self.ns[span] += dt
                self.calls[span] += 1
                if self._depth == 0:
                    self.top_ns += dt
            if record is not None:
                record(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, owners: dict):
        """Wrap every layer found in `owners`; restore the originals on exit."""
        saved = []
        try:
            for owner_key, attr, span in LAYERS:
                owner = owners[owner_key]
                fn = getattr(owner, attr, None)
                if fn is None:
                    print(f"trace: {owner_key}.{attr} not found, span {span} reads 0", file=sys.stderr)
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(span, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
