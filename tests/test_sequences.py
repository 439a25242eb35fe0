import json
import math

import numpy as np
import pytest

from echodex import (InputSequence, WindowExhausted, d_prod, d_unif,
                     gen_context_task, gen_two_symbol, gen_uniform_scaled,
                     load_input, load_sequence, save_sequence, shift,
                     splice_large_input)
from echodex import sequences
from echodex.sequences import json_text, write_csv, write_member_csv


def rand_seq(rng, n_i=2, first=-6, last=6):
    vals = rng.uniform(-1, 1, (last - first + 1, n_i))
    return InputSequence(anchor=first, values=vals,
                         lo=-np.ones(n_i), hi=np.ones(n_i))


def test_window_access_and_exhaustion():
    seq = rand_seq(np.random.default_rng(0), n_i=1, first=-3, last=4)
    assert seq.first == -3 and seq.last == 4 and seq.length == 8
    assert np.array_equal(seq.at(-3), seq.values[0])
    assert np.array_equal(seq.at(4), seq.values[-1])
    with pytest.raises(WindowExhausted):
        seq.at(5)
    with pytest.raises(WindowExhausted):
        seq.at(-4)
    with pytest.raises(WindowExhausted):
        seq.require_window(-4, 0)
    seq.require_window(-3, 4)
    sub = seq.slice(-1, 2)
    assert sub.first == -1 and sub.last == 2
    assert np.array_equal(sub.values, seq.values[2:6])
    with pytest.raises(WindowExhausted):
        seq.slice(-1, 5)


def test_shift_is_zero_copy_reindexing():
    seq = rand_seq(np.random.default_rng(1))
    moved = shift(seq, 4)
    assert moved.values is seq.values
    for k in range(moved.first, moved.last + 1):
        assert np.array_equal(moved.at(k), seq.at(k + 4))
    # shifts compose additively and shift 0 is the identity
    twice = shift(shift(seq, 2), 3)
    assert twice.anchor == shift(seq, 5).anchor
    assert shift(seq, 0).anchor == seq.anchor


def test_d_prod_matches_explicit_sum():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = rand_seq(rng)
        v = rand_seq(rng)
        hw = int(rng.integers(0, 7))
        want = 0.0
        for k in range(-hw, hw + 1):
            want += np.linalg.norm(u.at(k) - v.at(k)) * 0.5 ** abs(k)
        assert abs(d_prod(u, v, hw) - want) <= 1e-12
    u = rand_seq(rng)
    assert d_prod(u, u, 6) == 0.0
    with pytest.raises(ValueError):
        d_prod(u, rand_seq(rng, n_i=1), 3)
    with pytest.raises(ValueError):
        d_prod(u, rand_seq(rng), -1)
    with pytest.raises(WindowExhausted):
        d_prod(u, rand_seq(rng), 7)


def test_d_prod_far_tail_halves_per_unit():
    """Differences confined to |k| > m contribute like 2^-m."""
    rng = np.random.default_rng(3)
    base = rand_seq(rng, n_i=1, first=-30, last=30)
    far = np.array([5.0])
    dists = [d_prod(base, splice_large_input(base, m, far), 25)
             for m in (5, 10, 20)]
    r1 = (dists[0] / dists[1]) ** (1 / 5)
    r2 = (dists[1] / dists[2]) ** (1 / 10)
    assert 1.8 <= r1 <= 2.2 and 1.8 <= r2 <= 2.2


def test_d_unif_metric_axioms():
    rng = np.random.default_rng(4)
    for _ in range(100):
        u, v, w = (rand_seq(rng) for _ in range(3))
        duv, dvw, duw = d_unif(u, v), d_unif(v, w), d_unif(u, w)
        assert duv >= 0.0
        assert duv == d_unif(v, u)
        assert duw <= duv + dvw + 1e-15
        assert d_unif(u, u) == 0.0
    u = rand_seq(rng)
    v = InputSequence(anchor=u.anchor, values=u.values.copy(), lo=u.lo, hi=u.hi)
    assert d_unif(u, v) == 0.0
    with pytest.raises(ValueError):
        d_unif(u, rand_seq(rng, first=-5, last=7))


def test_two_symbol_degenerate_probabilities():
    u1, u2 = np.array([0.25, 0.15]), np.array([-0.25, -0.15])
    always = gen_two_symbol(u1, u2, 1.0, 0, 50, seed=0)
    never = gen_two_symbol(u1, u2, 0.0, 0, 50, seed=0)
    assert np.all(always.values == u1)
    assert np.all(never.values == u2)


def test_two_symbol_balanced_frequency():
    # law-of-large-numbers band for the committed stream
    u1, u2 = np.array([1.0]), np.array([-1.0])
    seq = gen_two_symbol(u1, u2, 0.5, 1, 10000, seed=0)
    freq = float(np.mean(seq.values[:, 0] > 0))
    assert 0.48 <= freq <= 0.52
    rows = seq.values[:, 0]
    assert set(np.unique(rows)) == {-1.0, 1.0}


def test_two_symbol_determinism_and_seed_sensitivity():
    u1, u2 = np.array([0.3]), np.array([-0.3])
    a = gen_two_symbol(u1, u2, 0.5, -10, 200, seed=5)
    b = gen_two_symbol(u1, u2, 0.5, -10, 200, seed=5)
    c = gen_two_symbol(u1, u2, 0.5, -10, 200, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    with pytest.raises(ValueError):
        gen_two_symbol(u1, u2, 1.5, 0, 10, seed=0)


def test_uniform_scaled_bounds_and_mean():
    assert np.all(gen_uniform_scaled(0.0, 0, 99, seed=1).values == 0.0)
    w = 0.05
    seq = gen_uniform_scaled(w, 1, 100000, seed=1)
    assert np.all(np.abs(seq.values) <= w)
    # mean of Uniform(-w, w) has sd w/sqrt(3 n)
    sigma = w / np.sqrt(3.0 * seq.length)
    assert abs(float(seq.values.mean())) <= 3.0 * sigma
    with pytest.raises(ValueError):
        gen_uniform_scaled(-0.1, 0, 10, seed=0)


def test_context_task_channels_and_targets():
    task = gen_context_task(0, 3000, 0.01, seed=0)
    smooth = task.drive.values
    assert smooth.shape == (3001, 2)
    # each channel is normalized to peak exactly at one
    assert np.isclose(smooth[:, 0].max(), 1.0) and np.isclose(smooth[:, 1].max(), 1.0)
    assert np.all(smooth > 0.0)
    z1, z2 = task.targets[:, 0], task.targets[:, 1]
    assert set(np.unique(z1)) <= {-1.0, 1.0}
    # z2 selects channel 1 in the "on" context and channel 2 otherwise
    on = z1 > 0
    assert np.array_equal(z2[on], smooth[on, 0])
    assert np.array_equal(z2[~on], smooth[~on, 1])
    # context starts "off" and flips exactly at pulse arrivals
    state = -1.0
    for t in range(3001):
        if task.pulses[t, 0] == 1.0:
            state = 1.0
        elif task.pulses[t, 1] == 1.0:
            state = -1.0
        assert z1[t] == state
    full = task.full_input()
    off = task.pulses_off_input()
    assert full.n_i == 4 and off.n_i == 4
    assert np.array_equal(full.values[:, :2], smooth)
    assert np.array_equal(full.values[:, 2:], task.pulses)
    assert np.all(off.values[:, 2:] == 0.0)
    assert np.array_equal(off.values[:, :2], smooth)


def test_context_task_pulse_rate():
    task = gen_context_task(0, 20000, 0.01, seed=3)
    rate = task.pulses.mean()
    # Bernoulli(0.01) per channel, 3 sigma band
    assert abs(rate - 0.01) <= 3 * np.sqrt(0.01 * 0.99 / task.pulses.size)


def test_splice_identity_beyond_window():
    rng = np.random.default_rng(8)
    base = rand_seq(rng, n_i=1, first=-12, last=9)
    spliced = splice_large_input(base, 12, np.array([9.0]))
    assert np.array_equal(spliced.values, base.values)


def test_splice_replaces_only_far_samples():
    rng = np.random.default_rng(9)
    base = rand_seq(rng, n_i=1, first=-20, last=20)
    far = np.array([3.5])
    out = splice_large_input(base, 4, far)
    for k in range(-20, 21):
        if abs(k) <= 4:
            assert np.array_equal(out.at(k), base.at(k))
        else:
            assert np.array_equal(out.at(k), far)


class _Nothing:
    def contains(self, u):
        return False


class _Everything:
    def contains(self, u):
        return True


def test_splice_admissibility_is_enforced():
    rng = np.random.default_rng(10)
    base = rand_seq(rng, n_i=1)
    with pytest.raises(ValueError):
        splice_large_input(base, 2, np.array([2.0]), admissible=_Nothing())
    splice_large_input(base, 2, np.array([2.0]), admissible=_Everything())
    with pytest.raises(ValueError):
        splice_large_input(base, 2, np.array([2.0, 1.0]))


def test_sequence_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    seq = rand_seq(rng, n_i=3, first=-7, last=12)
    vals = seq.values.copy()
    vals[:6, 1] = [0.0, -0.0, 5e-324, 0.1, 1e16, 1.7976931348623157e308]
    seq = InputSequence(anchor=seq.anchor, values=vals)
    path = tmp_path / "input.csv"
    save_sequence(seq, path)
    back = load_sequence(path)
    assert back.anchor == seq.anchor
    assert np.array_equal(back.values, seq.values)
    assert np.array_equal(np.signbit(back.values), np.signbit(seq.values))
    header = path.read_text().splitlines()[0]
    assert header == "k,u_1,u_2,u_3"
    bad = tmp_path / "missing_header.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_sequence(bad)
    gap = tmp_path / "gap.csv"
    gap.write_text("k,u_1\n0,0.5\n2,0.5\n")
    with pytest.raises(ValueError):
        load_sequence(gap)


def test_write_csv_formats_every_column_kind(tmp_path):
    # sweep_results.csv writes inf as the min_separation of one cluster
    path = tmp_path / "table.csv"
    rows = [(0.0006, 3, "2", True, math.inf),
            (0.05, 4, "indefinite", False, -math.inf),
            (1e-07, 5, "1", True, math.nan),
            (0.01, 6, "1", False, 0.1)]
    write_csv(path, "w,seed,index,flag,x", "%g,%d,%s,%d,%.17g", rows)
    assert path.read_bytes() == (b"w,seed,index,flag,x\n"
                                 b"0.0006,3,2,1,inf\n"
                                 b"0.05,4,indefinite,0,-inf\n"
                                 b"1e-07,5,1,1,nan\n"
                                 b"0.01,6,1,0,0.10000000000000001\n")
    assert path.read_text().splitlines()[1:] == [
        f"{w:g},{s},{i},{int(f)},{x:.17g}" for w, s, i, f, x in rows]
    # more rows than a block of lines, the last block not full, given
    # as an iterator: every line is still fmt % row
    many = [(1e-3 * j, j, str(j % 3), j % 2, j / 7) for j in
            range(2 * sequences._CSV_BLOCK + 5)]
    write_csv(path, "w,seed,index,flag,x", "%g,%d,%s,%d,%.17g", iter(many))
    assert path.read_text() == "".join(
        ["w,seed,index,flag,x\n"]
        + ["%g,%d,%s,%d,%.17g\n" % row for row in many])
    write_csv(path, "k", "%d", [])
    assert path.read_bytes() == b"k\n"


@pytest.mark.parametrize("shape", [(1, 3), (5, 40), (2, 2100), (3, 9, 2), (0, 4)])
def test_write_member_csv_spells_what_write_csv_does(shape, tmp_path):
    # member i's state j as the row (i, ks[j], *state), as write_csv
    # writes ("%d,%d" + ",%.17g" * d) % row, ks below zero included
    rng = np.random.default_rng(len(shape) + shape[1])
    members = rng.uniform(-1, 1, shape)
    members.reshape(-1)[:3] = [-0.0, math.nan, -math.inf][:members.size]
    d = shape[2] if len(shape) > 2 else 1
    ks = range(-7, shape[1] - 7)
    member_path, row_path = tmp_path / "members.csv", tmp_path / "rows.csv"
    write_member_csv(member_path, "ic_id,k,x", ks, members)
    write_csv(row_path, "ic_id,k,x", "%d,%d" + ",%.17g" * d,
              ((i, k, *np.atleast_1d(x).tolist()) for i, member in enumerate(members)
               for k, x in zip(ks, member)))
    assert member_path.read_bytes() == row_path.read_bytes()
    with pytest.raises(ValueError):
        write_member_csv(member_path, "ic_id,k,x", range(shape[1] + 1), members)


@pytest.mark.parametrize("sort_keys", [False, True])
def test_json_text_spells_what_json_dumps_does(sort_keys):
    # float lists (fast) with nan, inf and -0.0 among them (json's
    # spelling), float subclasses, mixed and nested lists, tuples, empty
    # containers, non-ASCII text and a non-str key
    rng = np.random.default_rng(0)
    doc = {"w_r": rng.standard_normal((3, 4)).tolist(), "alpha": 1.0,
           "finite": [0.1, -0.0, 1e-300, 5e300, 2.0], "n": 3,
           "odd": [1.0, math.nan, math.inf, -math.inf],
           "mixed": [1, 2.5, True, None, "ü\"\n", np.float64(0.1)],
           "pair": (1.5, 2.5), "empty": {"list": [], "dict": {}, "tuple": ()},
           "nested": [[[]], [{}], {"k": [{"a": [0.5]}]}], "flag": False}
    docs = [doc, [], {}, 0.1, math.nan, "x", None, [np.float64(0.25)]]
    if not sort_keys:
        docs.append({1.5: "a float key", 2: [3.0]})
    for d in docs:
        assert json_text(d, sort_keys) == json.dumps(d, indent=1,
                                                     sort_keys=sort_keys) + "\n"


def test_generator_spec_json_loads_to_the_generators_sequence(tmp_path):
    spec_path = tmp_path / "gen.json"
    for doc, want in (
            ({"kind": "two_symbol", "seed": 4,
              "params": {"u1": [0.25, 0.15], "u2": [-0.25, -0.15], "p": 0.5,
                         "first": -50, "last": 150}},
             gen_two_symbol(np.array([0.25, 0.15]), np.array([-0.25, -0.15]),
                            0.5, -50, 150, seed=4)),
            ({"kind": "uniform_scaled", "seed": 7,
              "params": {"w": 0.01, "first": 0, "last": 5}},
             gen_uniform_scaled(0.01, 0, 5, seed=7))):
        spec_path.write_text(json.dumps(doc))
        loaded = load_input(spec_path)
        assert loaded.anchor == want.anchor
        assert loaded.values.tobytes() == want.values.tobytes()
        assert np.array_equal(loaded.lo, want.lo)
        assert np.array_equal(loaded.hi, want.hi)
    spec_path.write_text(json.dumps({"kind": "mystery", "params": {}, "seed": 0}))
    with pytest.raises(ValueError, match="mystery"):
        load_input(spec_path)
    spec_path.write_text(json.dumps({"kind": "uniform_scaled",
                                     "params": {"w": 0.01, "first": 0, "last": 5}}))
    with pytest.raises(KeyError, match="seed"):
        load_input(spec_path)


def test_generator_spec_params_of_the_wrong_type_name_their_key(tmp_path):
    spec_path = tmp_path / "gen.json"
    two = {"u1": [0.25, 0.15], "u2": [-0.25, -0.15], "p": 0.5,
           "first": -50, "last": 150}
    for kind, params, key in (
            ("uniform_scaled", {"w": 0.01, "first": 0.5, "last": 800}, "'first'"),
            ("uniform_scaled", {"w": 0.01, "first": 0, "last": True}, "'last'"),
            ("uniform_scaled", {"w": [0.01], "first": 0, "last": 8}, "'w'"),
            ("uniform_scaled", {"w": None, "first": 0, "last": 8}, "'w'"),
            ("two_symbol", dict(two, u1=["a", 0.15]), "'u1'"),
            ("two_symbol", dict(two, u2={"x": 1}), "'u2'"),
            ("two_symbol", dict(two, p="half"), "'p'"),
            ("uniform_scaled", ["x"], "params must be an object"),
            ("uniform_scaled", 3, "params must be an object")):
        spec_path.write_text(json.dumps({"kind": kind, "params": params,
                                         "seed": 1}))
        with pytest.raises(ValueError, match=key):
            load_input(spec_path)
    # the document's own fields
    good = {"kind": "uniform_scaled", "params": {"w": 0.01, "first": 0, "last": 8}}
    for doc, match in ((["x"], "spec must be an object"),
                       (dict(good, seed=[1]), "seed must be an integer"),
                       (dict(good, seed=1.5), "seed must be an integer"),
                       (dict(good, seed=1, kind=["x"]), "unknown generator kind")):
        spec_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_input(spec_path)
    # numbers and per-channel lists of numbers still load
    spec_path.write_text(json.dumps({"kind": "two_symbol", "seed": 0,
                                     "params": dict(two, u1=0.3, u2=-0.3)}))
    assert load_input(spec_path).n_i == 1
