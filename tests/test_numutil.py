from math import comb

import pytest

from charquo import numutil
from charquo.numutil import factorize, is_prime, next_prime, slices


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(32):
        assert is_prime(n) == (n in primes)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)
    assert is_prime(27941)
    # psi_12 = 399165290221 * 798330580441 fools the witnesses 2..37
    assert not is_prime(318665857834031151167461)
    with pytest.raises(ValueError, match="exact only below 3317044064679887385961981"):
        is_prime(3317044064679887385961981)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(2 ** 10) == {2: 10}
    n = 10007 * 10009
    assert factorize(n) == {10007: 1, 10009: 1}
    for n in (97, 1009, 65537):
        assert factorize(n) == {n: 1}
    with pytest.raises(ValueError, match="n >= 1"):
        factorize(0)


def test_binom():
    assert comb(6, 3) == 20
    assert comb(5, 0) == 1
    assert comb(4, 7) == 0


def test_next_prime():
    assert next_prime(2) == 2
    assert next_prime(8) == 11
    assert next_prime(20) == 23


def test_slices_cover_range_within_budget(monkeypatch):
    # SLICE_ENTRIES is read at each call: one patch reaches every loop
    monkeypatch.setattr(numutil, "SLICE_ENTRIES", 100)
    for n in (0, 1, 99, 100, 101, 1000):
        for width in (1, 7, 16, 100, 1000):
            step = max(1, 100 // width)
            cut = slices(n, width)
            assert [i for c in cut for i in range(n)[c]] == list(range(n))
            assert all(c.stop - c.start == step for c in cut[:-1])
            assert all(0 < c.stop - c.start <= step for c in cut)


def test_naming_names_the_given_path(tmp_path):
    staged = tmp_path / "missing" / "f.1234"
    with pytest.raises(FileNotFoundError) as info, numutil.naming("f"):
        open(staged, "x")
    assert str(info.value) == "[Errno 2] No such file or directory: 'f'"
    assert info.value.filename2 is None and info.value.__cause__.filename == str(staged)
    # an OSError about no file is raised as it is
    error = OSError(28, "No space left on device")
    with pytest.raises(OSError) as info, numutil.naming("f"):
        raise error
    assert info.value is error


def test_write_atomic_replaces_the_target_only_when_written(tmp_path):
    path = tmp_path / "r.json"
    numutil.write_atomic(str(path), lambda fh: fh.write("old"), "t")
    numutil.write_atomic(str(path), lambda fh: fh.write(b"new"), "b")
    assert path.read_text() == "new"

    def fail(fh):
        fh.write("partial")
        raise ValueError("the writer fails")

    with pytest.raises(ValueError, match="the writer fails"):
        numutil.write_atomic(str(path), fail, "t")
    assert path.read_text() == "new" and [f.name for f in tmp_path.iterdir()] == ["r.json"]
