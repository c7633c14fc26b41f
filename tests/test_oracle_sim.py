from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from cqd.oracle_sim import (
    OracleConfig,
    SimulatedOracle,
    aggregate,
    ensemble_infer,
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
    return oracle.target + noise


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
    # The noise-free answer is the target, whatever the query carries.
    rng = np.random.default_rng(1)
    target = rng.standard_normal((3, 3, 3))
    oracle = SimulatedOracle(OracleConfig(0.0, 1), target)
    for eps in (0.1, 0.9):
        query = make_query(rng, shape=(3, 3, 3), eps=eps)
        assert np.array_equal(oracle.infer(query, 0).payload, target)


@pytest.mark.parametrize("sigma", [0.0, 0.4])
def test_oracle_keeps_its_own_read_only_target(sigma):
    rng = np.random.default_rng(2)
    target = rng.standard_normal((4, 5, 6))
    query = make_query(rng)
    oracle = SimulatedOracle(OracleConfig(sigma, 2), target)
    before = oracle.infer(query, 0).payload.copy()
    target[...] = 0.0
    assert oracle.infer(query, 0).payload.tobytes() == before.tobytes()
    assert not np.shares_memory(oracle.target, target)
    with pytest.raises(ValueError):
        oracle.target[0, 0, 0] = 1.0


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


def test_reused_generator_matches_a_fresh_stream_per_draw():
    rng = np.random.default_rng(12)
    target = rng.standard_normal((4, 5, 6))
    queries = [make_query(rng, eps=0.5), make_query(rng, eps=0.5, task_id=1)]
    oracle = SimulatedOracle(OracleConfig(0.7, 2**63 + 5), target)
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
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            OracleConfig(0.1, seed)


def test_config_refuses_a_seed_that_is_not_an_integer():
    # Seeds 1, 1.5 and 1.9 used to give byte-identical traces, and -0.5 that of 0.
    for bad in (1.5, 1.9, -0.5, 2.0):
        with pytest.raises(TypeError):
            OracleConfig(0.1, bad)
    assert OracleConfig(0.1, np.uint64(2**64 - 1)).seed == 2**64 - 1


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_config_rejects_non_finite_sigma(sigma):
    # nan used to pass `sigma < 0` and fail the run's first projection.
    with pytest.raises(ValueError, match="noise_sigma must be finite"):
        OracleConfig(sigma, 0)


def test_aggregate_single_and_symmetry():
    x = np.arange(6.0).reshape(1, 2, 3)
    assert np.array_equal(aggregate([x]), x)
    assert np.all(aggregate([x, -x]) == 0.0)


@pytest.mark.parametrize("shape", [(6, 6, 6), (4, 5, 6)])
@pytest.mark.parametrize("m", [2, 3, 64])
def test_aggregate_mean_matches_numpy_bitwise(shape, m):
    rng = np.random.default_rng(m)
    payloads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8) for _ in range(m)]
    copies = [p.copy() for p in payloads]
    got = aggregate(payloads)
    assert got.dtype == np.float64
    assert got.tobytes() == np.mean(np.stack(copies), axis=0).tobytes()
    for p, c in zip(payloads, copies):
        assert p.tobytes() == c.tobytes()
    assert not any(np.shares_memory(got, p) for p in payloads)


def test_aggregate_errors():
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([np.zeros((2, 2)), np.zeros((3, 2))])


def test_ensemble_m1_identical_to_single_call():
    rng = np.random.default_rng(8)
    target = rng.standard_normal((4, 5, 6))
    query = make_query(rng)
    oracle = SimulatedOracle(OracleConfig(0.5, 13), target)
    single = oracle.infer(query, 5)
    ens = ensemble_infer(oracle, query, 1, draw_start=5)
    assert ens.payload.tobytes() == single.payload.tobytes()
    assert ens.draws_used == 1


def test_ensemble_zero_noise_any_m():
    rng = np.random.default_rng(9)
    target = rng.standard_normal((4, 5, 6))
    query = make_query(rng)
    oracle = SimulatedOracle(OracleConfig(0.0, 13), target)
    # One draw path at any sigma: at sigma = 0 it must give the target's bytes.
    for m in (1, 2, 4):
        resp = ensemble_infer(oracle, query, m)
        assert resp.payload.tobytes() == target.tobytes()
        assert resp.draws_used == m


def test_ensemble_variance_reduction_m25():
    rng = np.random.default_rng(10)
    target = rng.standard_normal((4, 5, 6))
    query = make_query(rng)
    sigma = 0.5
    oracle = SimulatedOracle(OracleConfig(sigma, 17), target)
    m, trials = 25, 2000
    sq = np.empty(trials)
    for t in range(trials):
        resp = ensemble_infer(oracle, query, m, draw_start=t * m)
        sq[t] = np.sum((resp.payload - target) ** 2)
    variance = float(np.mean(sq))
    expected = sigma**2 / m
    assert abs(variance - expected) <= 0.2 * expected


def test_ensemble_mean_holds_about_two_payloads():
    rng = np.random.default_rng(42)
    target = rng.standard_normal((24, 24, 24))
    query = make_query(rng)
    oracle = SimulatedOracle(OracleConfig(0.3, 42), target)
    oracle.infer(query, 0)  # decode outside the measurement
    tracemalloc.start()
    try:
        resp = ensemble_infer(oracle, query, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert resp.draws_used == 32
    assert peak <= 3 * target.nbytes  # all 32 draws were alive at once before


@pytest.mark.parametrize(
    "shape, m",
    [
        pytest.param((4, 5, 6), 2, id="2"),
        pytest.param((4, 5, 6), 64, id="64"),
        # 12^3: nine draws a block, so m = 64 takes eight blocks.
        pytest.param((12, 12, 12), 64, id="12cube-64"),
        # 24^3: a payload above the block cap, so one draw a block.
        pytest.param((24, 24, 24), 3, id="24cube-3"),
    ],
)
def test_streamed_ensemble_mean_matches_numpy_bitwise(shape, m):
    rng = np.random.default_rng(43)
    target = rng.standard_normal(shape)
    query = make_query(rng)
    oracle = SimulatedOracle(OracleConfig(0.7, 43), target)
    # Each draw from its own fresh Philox stream, apart from the oracle's draw path.
    stacked = np.stack([reference_payload(oracle, query, 9 + i) for i in range(m)])
    expected = np.mean(stacked, axis=0)
    for _ in range(2):  # a second call gives the same bits
        resp = ensemble_infer(oracle, query, m, draw_start=9)
        assert resp.payload.tobytes() == expected.tobytes()
        assert resp.draws_used == m


@pytest.mark.parametrize("shape", [(6, 6, 6), (24, 24, 24)], ids=["shape0-mean", "shape1-mean"])
def test_an_ensemble_payload_views_no_buffer_larger_than_itself(shape):
    # A caller may keep every payload: a view into a block of draws would pin
    # the whole block.
    rng = np.random.default_rng(44)
    target = rng.standard_normal(shape)
    query = make_query(rng)
    oracle = SimulatedOracle(OracleConfig(0.2, 44), target)
    for m in (1, 2, 64):
        payload = ensemble_infer(oracle, query, m).payload
        assert payload.shape == shape
        assert payload.base is None or payload.base.nbytes <= payload.nbytes


def test_an_ensemble_mean_keeps_a_signed_zero():
    # At sigma = 0 a draw's entry is -0.0 where the target's is -0.0 and the
    # zero-scaled noise is negative.  numpy's reduce starts at +0.0, which
    # would turn an entry that is -0.0 in every draw into +0.0.
    rng = np.random.default_rng(45)
    query = make_query(rng)
    oracle = SimulatedOracle(OracleConfig(0.0, 45), np.full((4, 5, 6), -0.0))
    d0, d1, d2 = (oracle.infer(query, i).payload for i in range(3))
    expected = (d0 + d1 + d2) / 3
    got = ensemble_infer(oracle, query, 3).payload
    assert got.tobytes() == expected.tobytes()
    assert np.any(np.signbit(got))


def test_aggregate_consumes_an_iterator():
    payloads = [np.full((2, 3), v) for v in (1.0, 2.0, 6.0)]
    assert np.array_equal(aggregate(iter(payloads)), np.full((2, 3), 3.0))
    with pytest.raises(ValueError):
        aggregate(iter([]))


def test_ensemble_rejects_bad_m():
    rng = np.random.default_rng(11)
    target = rng.standard_normal((3, 3, 3))
    query = make_query(rng, shape=(3, 3, 3))
    oracle = SimulatedOracle(OracleConfig(0.0, 1), target)
    with pytest.raises(ValueError):
        ensemble_infer(oracle, query, 0)


@pytest.mark.parametrize("draw_index, m", [(0.5, 1), (1.0, 1), (0, 2.0), (0, 1.5)])
def test_infer_refuses_a_draw_index_or_m_that_is_no_integer(draw_index, m):
    # draw_index 0.5 used to give draw 0's bits, and m = 2.0 numpy's TypeError from np.empty.
    rng = np.random.default_rng(12)
    query = make_query(rng, shape=(3, 3, 3))
    oracle = SimulatedOracle(OracleConfig(0.1, 1), rng.standard_normal((3, 3, 3)))
    with pytest.raises(TypeError, match="integer"):
        oracle.infer(query, draw_index, m=m)
    got = oracle.infer(query, np.int64(1), m=np.int64(2)).payload
    assert got.tobytes() == oracle.infer(query, 1, m=2).payload.tobytes()


@pytest.mark.parametrize("draw_index, m, match", [
    (-1, 1, "draw_index must be nonnegative"), (0, 0, "m must be at least 1"),
])
def test_infer_refuses_a_negative_draw_index_or_an_empty_ensemble(draw_index, m, match):
    rng = np.random.default_rng(12)
    query = make_query(rng, shape=(3, 3, 3))
    oracle = SimulatedOracle(OracleConfig(0.1, 1), rng.standard_normal((3, 3, 3)))
    with pytest.raises(ValueError, match=match):
        oracle.infer(query, draw_index, m=m)


def test_infer_refuses_draws_past_the_64_bit_counter():
    # Both used to raise numpy's OverflowError from the Philox state setter.
    rng = np.random.default_rng(13)
    query = make_query(rng, shape=(3, 3, 3))
    oracle = SimulatedOracle(OracleConfig(0.1, 1), rng.standard_normal((3, 3, 3)))
    for draw_index, m in ((2**64, 1), (2**64 - 1, 2), (2**63, 2**63 + 1)):
        with pytest.raises(ValueError, match="draw counter"):
            oracle.infer(query, draw_index, m=m)
    # The last draw index, alone and as an ensemble's last draw.
    last = oracle.infer(query, 2**64 - 1).payload
    assert last.tobytes() == reference_payload(oracle, query, 2**64 - 1).tobytes()
    assert oracle.infer(query, 2**64 - 2, m=2).draws_used == 2


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
    resp = ensemble_infer(oracle, query, 8, draw_start=3)
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
