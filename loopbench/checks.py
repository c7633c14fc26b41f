"""Output checks of the cqd loop benchmark.

Each check is either a computation made apart from cqd (plain numpy,
``struct`` and ``zlib``) or a property the method must have; none compares
against a stored copy of earlier output.  They run after the timed window.
"""
from __future__ import annotations

import struct
import zlib

import numpy as np

LOSS_RTOL = 1e-9
MIN_LOSS_DROP = 100.0
ORTHO_TOL = 1e-10
VARIANCE_BAND = (0.8, 1.25)
# Query wire format: version, three uint16 ranks, ..., payload, CRC32.
_HEAD = struct.Struct("<BHHH")
_CRC = struct.Struct("<I")
QUERY_FIXED_BYTES = 27


def dense(core, factors) -> np.ndarray:
    return np.einsum("abc,ia,jb,kc->ijk", core, *factors)


def loss(core, factors, target) -> float:
    return 0.5 * float(np.sum((dense(core, factors) - target) ** 2))


def check_calls(wl, cases, calls) -> list[str]:
    """Per-call checks of traces and final points."""
    failures = []
    first_losses: dict[int, tuple] = {}
    for n, call in enumerate(calls):
        where = f"call {n} (instance {call.case})"
        trace = call.trace
        if trace is None:
            failures.append(f"{where}: raised")
            continue
        if trace.error is not None:
            failures.append(f"{where}: trace.error = {trace.error}")
        if len(trace.rows) != wl.iters:
            failures.append(f"{where}: {len(trace.rows)} rows, expected {wl.iters}")
        for row in trace.rows:
            r1, r2, r3 = row.ranks
            if row.budget > wl.tau or row.budget != r1 * r2 * r3:
                failures.append(f"{where}: k={row.k} budget {row.budget}, ranks {row.ranks}, tau {wl.tau}")
                break
        case = cases[call.case]
        x0 = case.x0
        loss0 = loss(x0.core, [f.u for f in x0.factors], case.target)
        if not trace.rows or abs(trace.rows[0].loss - loss0) > LOSS_RTOL * loss0:
            failures.append(f"{where}: loss at k=0 differs from numpy's {loss0!r}")
        final = call.final
        factors = [f.u for f in final.factors]
        final_loss = loss(final.core, factors, case.target)
        if not final_loss * MIN_LOSS_DROP <= loss0:
            failures.append(f"{where}: final loss {final_loss:.3e} not 100x below {loss0:.3e}")
        if final.core.shape != wl.ranks:
            failures.append(f"{where}: core shape {final.core.shape}, ranks {wl.ranks}")
        for mode, u in enumerate(factors):
            err = np.max(np.abs(u.T @ u - np.eye(u.shape[1])))
            if err > ORTHO_TOL:
                failures.append(f"{where}: factor {mode} off orthonormal by {err:.1e}")
        # Same inputs and seeds give byte-identical traces.
        losses = tuple(row.loss for row in trace.rows)
        if first_losses.setdefault(call.case, losses) != losses:
            failures.append(f"{where}: trace differs from an earlier run of the same instance")
    return failures


def check_query(query: bytes) -> str | None:
    """Framing and checksum of one query, decoded apart from cqd."""
    if len(query) < QUERY_FIXED_BYTES:
        return f"{len(query)}-byte query is shorter than the header and CRC"
    version, r1, r2, r3 = _HEAD.unpack_from(query, 0)
    if version != 1:
        return f"query version {version}"
    if len(query) != QUERY_FIXED_BYTES + 8 * r1 * r2 * r3:
        return f"{len(query)}-byte query with ranks ({r1}, {r2}, {r3})"
    (stored,) = _CRC.unpack_from(query, len(query) - _CRC.size)
    if zlib.crc32(query[: -_CRC.size]) != stored:
        return "query CRC32 mismatch"
    return None


def check_probe(wl, cases, calls, tracer, sigma: float) -> list[str]:
    """Checks on what the traced calls sent to and received from the oracle."""
    failures = []
    completed = sum(c.completed for c in calls)
    if len(tracer.queries) != completed:
        failures.append(f"{len(tracer.queries)} queries reached the oracle for {completed} iterations")
    first_trace = {}
    for call in calls:
        first_trace.setdefault(call.case, call.trace)
    for case, k, query in tracer.queries:
        problem = check_query(query)
        if problem is None:
            ranks = _HEAD.unpack_from(query, 0)[1:]
            trace = first_trace[case]
            if trace is not None and k < len(trace.rows) and tuple(trace.rows[k].ranks) != ranks:
                problem = f"query ranks {ranks}, trace ranks {trace.rows[k].ranks}"
        if problem is not None:
            failures.append(f"instance {case}, k={k}: {problem}")
            break
    if wl.m > 1:
        dev = [float(np.sum((p - cases[case].target) ** 2)) for case, p in tracer.payloads]
        expected = sigma**2 / wl.m
        ratio = float(np.mean(dev)) / expected if dev else float("nan")
        if not VARIANCE_BAND[0] <= ratio <= VARIANCE_BAND[1]:
            failures.append(f"mean |payload - target|^2 is {ratio:.3f} x sigma^2/m")
    return failures
