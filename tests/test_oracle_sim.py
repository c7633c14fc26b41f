from __future__ import annotations

import numpy as np
import pytest

from cqd.oracle_sim import (
    OracleConfig,
    SimulatedOracle,
    aggregate,
    ensemble_infer,
    oracle_infer,
)
from cqd.query_codec import CodecError, IntegrityError, decode, encode
from cqd.spectral_masking import asm_compress

HEADER_BYTE = 12  # inside task_id, covered by the CRC


def make_query(rng, shape=(4, 5, 6), eps=0.3, task_id=0, seed=0):
    instance = rng.standard_normal(shape)
    return encode(asm_compress(instance, eps), task_id, seed, eps)


def reference_payload(oracle, query, draw_index):
    """The noisy answer from a fresh Philox stream for this draw."""
    dq = decode(query)
    key = np.array([oracle.cfg.seed, dq.checksum], dtype=np.uint64)
    counter = np.array([0, draw_index, 0, 0], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(counter=counter, key=key))
    shape = oracle.target.shape
    noise = oracle.cfg.noise_sigma / np.sqrt(np.prod(shape)) * gen.standard_normal(shape)
    mean = oracle.target
    if oracle.cfg.mean_map == "residual":
        r1, r2, r3 = dq.ranks
        lifted = np.zeros(shape)
        lifted[:r1, :r2, :r3] = dq.core
        mean = oracle.target - lifted
    return mean + noise


def test_zero_noise_returns_mean_exactly():
    rng = np.random.default_rng(0)
    target = rng.standard_normal((4, 5, 6))
    query = make_query(rng)
    oracle = SimulatedOracle(OracleConfig(0.0, 7), target)
    r1 = oracle.infer(query, 0)
    r2 = oracle.infer(query, 1)
    assert np.array_equal(r1.payload, target)
    assert np.array_equal(r1.payload, r2.payload)
    assert r1.draws_used == 1


def test_identity_completion_is_default_map():
    rng = np.random.default_rng(1)
    target = rng.standard_normal((3, 3, 3))
    query = make_query(rng, shape=(3, 3, 3))
    resp = oracle_infer(query, OracleConfig(0.0, 1), target)
    assert np.array_equal(resp.payload, target)


def test_residual_map_subtracts_lifted_core():
    rng = np.random.default_rng(2)
    target = rng.standard_normal((4, 5, 6))
    query = make_query(rng, eps=0.5)
    dq = decode(query)
    oracle = SimulatedOracle(OracleConfig(0.0, 1, mean_map="residual"), target)
    resp = oracle.infer(query, 0)
    lifted = np.zeros(target.shape)
    r1, r2, r3 = dq.ranks
    lifted[:r1, :r2, :r3] = dq.core
    assert np.array_equal(resp.payload, target - lifted)


def test_checksum_echo_matches_query():
    rng = np.random.default_rng(3)
    target = rng.standard_normal((4, 5, 6))
    query = make_query(rng)
    resp = SimulatedOracle(OracleConfig(0.1, 5), target).infer(query, 0)
    assert resp.query_checksum_echo == decode(query).checksum


def test_noise_deterministic_per_seed_query_draw():
    rng = np.random.default_rng(4)
    target = rng.standard_normal((4, 5, 6))
    query = make_query(rng)
    oracle = SimulatedOracle(OracleConfig(0.5, 9), target)
    a = oracle.infer(query, 3)
    b = oracle.infer(query, 3)
    c = oracle.infer(query, 4)
    assert a.payload.tobytes() == b.payload.tobytes()
    assert a.payload.tobytes() != c.payload.tobytes()
    other_seed = SimulatedOracle(OracleConfig(0.5, 10), target).infer(query, 3)
    assert other_seed.payload.tobytes() != a.payload.tobytes()


def test_noise_second_moment_and_bias():
    rng = np.random.default_rng(5)
    target = rng.standard_normal((4, 5, 6))
    query = make_query(rng)
    sigma = 0.5
    oracle = SimulatedOracle(OracleConfig(sigma, 11), target)
    n = 10_000
    payloads = np.stack([oracle.infer(query, i).payload for i in range(n)])
    noise = payloads - target
    second_moment = float(np.mean(np.sum(noise**2, axis=(1, 2, 3))))
    assert abs(second_moment - sigma**2) <= 0.05 * sigma**2
    assert second_moment <= sigma**2 * 1.05
    bias = np.linalg.norm(np.mean(noise, axis=0))
    assert bias <= 3 * sigma / np.sqrt(n)


def test_successive_draws_of_one_query_share_no_noise_value():
    # Philox increments counter word 0 per block; a draw index in that word
    # made draw d+1 the stream of draw d shifted by one block.
    rng = np.random.default_rng(14)
    query = make_query(rng, shape=(6, 6, 6))
    oracle = SimulatedOracle(OracleConfig(1.0, 14), np.zeros((6, 6, 6)))
    for d in (0, 1, 7):
        a = oracle.infer(query, d).payload
        b = oracle.infer(query, d + 1).payload
        assert np.intersect1d(a, b).size == 0


@pytest.mark.parametrize("mean_map", ["identity_completion", "residual"])
def test_reused_generator_matches_a_fresh_stream_per_draw(mean_map):
    rng = np.random.default_rng(12)
    target = rng.standard_normal((4, 5, 6))
    queries = [make_query(rng, eps=0.5), make_query(rng, eps=0.5, task_id=1)]
    oracle = SimulatedOracle(OracleConfig(0.7, 2**63 + 5, mean_map=mean_map), target)
    for query in queries:
        for d in (5, 3, 5, 0):  # out of order and repeated
            got = oracle.infer(query, d).payload
            assert got.tobytes() == reference_payload(oracle, query, d).tobytes()


@pytest.mark.parametrize("sigma", [0.0, 0.4])
def test_mutating_a_payload_changes_neither_target_nor_next_response(sigma):
    rng = np.random.default_rng(13)
    target = rng.standard_normal((4, 5, 6))
    query = make_query(rng)
    oracle = SimulatedOracle(OracleConfig(sigma, 13), target)
    saved = oracle.target.copy()
    first = oracle.infer(query, 2)
    expected = first.payload.copy()
    first.payload[...] = 1e9
    assert oracle.target.tobytes() == saved.tobytes()
    assert oracle.infer(query, 2).payload.tobytes() == expected.tobytes()


def test_undecodable_query_raises_protocol_error():
    rng = np.random.default_rng(6)
    target = rng.standard_normal((3, 3, 3))
    oracle = SimulatedOracle(OracleConfig(0.0, 1), target)
    with pytest.raises(CodecError):
        oracle.infer(b"not a query", 0)


def test_corrupted_query_raises_integrity_error():
    rng = np.random.default_rng(7)
    target = rng.standard_normal((4, 5, 6))
    query = bytearray(make_query(rng))
    query[24] ^= 0x01
    oracle = SimulatedOracle(OracleConfig(0.0, 1), target)
    with pytest.raises(IntegrityError):
        oracle.infer(bytes(query), 0)


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(-0.1, 0)
    with pytest.raises(ValueError):
        OracleConfig(0.1, 0, mean_map="nope")


def test_aggregate_single_and_symmetry():
    x = np.arange(6.0).reshape(1, 2, 3)
    assert np.array_equal(aggregate([x], "mean"), x)
    assert np.array_equal(aggregate([x], "median"), x)
    assert np.all(aggregate([x, -x], "mean") == 0.0)


@pytest.mark.parametrize("shape", [(6, 6, 6), (4, 5, 6)])
@pytest.mark.parametrize("m", [2, 3, 64])
def test_aggregate_mean_matches_numpy_bitwise(shape, m):
    rng = np.random.default_rng(m)
    payloads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8) for _ in range(m)]
    copies = [p.copy() for p in payloads]
    got = aggregate(payloads, "mean")
    assert got.dtype == np.float64
    assert got.tobytes() == np.mean(np.stack(copies), axis=0).tobytes()
    for p, c in zip(payloads, copies):
        assert p.tobytes() == c.tobytes()
    assert not any(np.shares_memory(got, p) for p in payloads)


def test_aggregate_median():
    vals = [np.full((2, 2), v) for v in (1.0, 2.0, 100.0)]
    assert np.all(aggregate(vals, "median") == 2.0)


def test_aggregate_errors():
    with pytest.raises(ValueError):
        aggregate([], "mean")
    with pytest.raises(ValueError):
        aggregate([np.zeros((2, 2)), np.zeros((3, 2))], "mean")
    with pytest.raises(ValueError):
        aggregate([np.zeros((2, 2))], "mode")


def test_ensemble_m1_identical_to_single_call():
    rng = np.random.default_rng(8)
    target = rng.standard_normal((4, 5, 6))
    query = make_query(rng)
    oracle = SimulatedOracle(OracleConfig(0.5, 13), target)
    single = oracle.infer(query, 5)
    ens = ensemble_infer(oracle, query, 1, "mean", draw_start=5)
    assert ens.payload.tobytes() == single.payload.tobytes()
    assert ens.draws_used == 1


def test_ensemble_zero_noise_any_m():
    rng = np.random.default_rng(9)
    target = rng.standard_normal((4, 5, 6))
    query = make_query(rng)
    oracle = SimulatedOracle(OracleConfig(0.0, 13), target)
    for m in (1, 2, 4):
        resp = ensemble_infer(oracle, query, m, "mean")
        assert np.array_equal(resp.payload, target)
        assert resp.draws_used == m
    assert np.array_equal(ensemble_infer(oracle, query, 3, "median").payload, target)


def test_ensemble_variance_reduction_m25():
    rng = np.random.default_rng(10)
    target = rng.standard_normal((4, 5, 6))
    query = make_query(rng)
    sigma = 0.5
    oracle = SimulatedOracle(OracleConfig(sigma, 17), target)
    m, trials = 25, 2000
    sq = np.empty(trials)
    for t in range(trials):
        resp = ensemble_infer(oracle, query, m, "mean", draw_start=t * m)
        sq[t] = np.sum((resp.payload - target) ** 2)
    variance = float(np.mean(sq))
    expected = sigma**2 / m
    assert abs(variance - expected) <= 0.2 * expected


def test_ensemble_rejects_bad_m():
    rng = np.random.default_rng(11)
    target = rng.standard_normal((3, 3, 3))
    query = make_query(rng, shape=(3, 3, 3))
    oracle = SimulatedOracle(OracleConfig(0.0, 1), target)
    with pytest.raises(ValueError):
        ensemble_infer(oracle, query, 0)


def test_ensemble_decodes_each_query_once(monkeypatch):
    import cqd.oracle_sim as oracle_sim

    rng = np.random.default_rng(40)
    target = rng.standard_normal((4, 5, 6))
    query = make_query(rng)
    cfg = OracleConfig(0.3, 40)
    # Reference: a fresh oracle per draw, so every draw decodes.
    before = aggregate([SimulatedOracle(cfg, target).infer(query, 3 + i).payload for i in range(8)])
    calls = []

    def counting_decode(data):
        calls.append(data)
        return decode(data)

    monkeypatch.setattr(oracle_sim, "decode", counting_decode)
    oracle = SimulatedOracle(cfg, target)
    resp = ensemble_infer(oracle, query, 8, "mean", draw_start=3)
    assert len(calls) == 1
    assert resp.payload.tobytes() == before.tobytes()
    assert resp.draws_used == 8


def test_cached_decode_still_checks_every_new_query(monkeypatch):
    import cqd.oracle_sim as oracle_sim

    rng = np.random.default_rng(41)
    target = rng.standard_normal((4, 5, 6))
    q1, q2 = make_query(rng), make_query(rng, task_id=1)
    calls = []

    def counting_decode(data):
        calls.append(data)
        return decode(data)

    monkeypatch.setattr(oracle_sim, "decode", counting_decode)
    oracle = SimulatedOracle(OracleConfig(0.1, 41), target)
    for q in (q1, q1, q2, q2, q1):
        oracle.infer(q, 0)
    assert calls == [q1, q2, q1]
    # A buffer changed after the call is a new query, checked again.
    buf = bytearray(q1)
    oracle.infer(buf, 0)
    buf[HEADER_BYTE] ^= 0x01
    with pytest.raises(IntegrityError):
        oracle.infer(buf, 1)
