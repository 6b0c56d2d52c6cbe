import json
import struct
import zlib

import numpy as np
import pytest

import vpsep.parallel
from vpsep import synth_dataset


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Small but realistic train/test corpus shared by pipeline-level tests."""
    root = tmp_path_factory.mktemp("corpus")
    return synth_dataset(root, seed=11, n_train=2, n_test=2, duration_s=1.2)


def _thread_count(scope, library):
    """The ``(get, set)`` thread-count functions behind a one-thread scope;
    the count the test found is put back after it."""
    if scope.threads is None:
        pytest.skip(f"{library}'s OpenBLAS exports no thread-count setter")
    get, set_ = scope.threads
    before = get()
    yield scope.threads
    set_(before)


@pytest.fixture
def lapack_threads():
    yield from _thread_count(vpsep.parallel.ONE_LAPACK_THREAD, "scipy")


@pytest.fixture
def blas_threads():
    yield from _thread_count(vpsep.parallel.ONE_BLAS_THREAD, "numpy")


def central_diff(f, planes, eps=1e-6):
    """Central finite differences of scalar f over a list of arrays."""
    grads = []
    for plane in planes:
        g = np.zeros_like(plane)
        it = np.nditer(plane, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = plane[idx]
            plane[idx] = orig + eps
            f_plus = f()
            plane[idx] = orig - eps
            f_minus = f()
            plane[idx] = orig
            g[idx] = (f_plus - f_minus) / (2 * eps)
        grads.append(g)
    return grads


def max_rel_grad_err(analytic, numeric, floor_scale=1e-3):
    """Worst relative disagreement; denominator floored by a fraction of the
    largest gradient magnitude so near-zero entries do not amplify noise."""
    gmax = max(max(np.max(np.abs(a)) for a in analytic),
               max(np.max(np.abs(n)) for n in numeric))
    worst = 0.0
    for a, n in zip(analytic, numeric):
        den = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor_scale * gmax)
        worst = max(worst, float(np.max(np.abs(a - n) / den)))
    return worst


@pytest.fixture(scope="session")
def grad_tools():
    return central_diff, max_rel_grad_err


DROP = object()  # a with_meta value that removes its key


def with_meta(data: bytes, **changes) -> bytes:
    """Checkpoint bytes with metadata keys changed (or dropped) and a valid
    CRC."""
    meta_len = struct.unpack_from("<I", data, 8)[0]
    meta = json.loads(data[12:12 + meta_len])
    meta.update(changes)
    meta = {k: v for k, v in meta.items() if v is not DROP}
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = (data[:4] + struct.pack("<II", 1, len(meta_bytes)) + meta_bytes
            + data[12 + meta_len:-4])
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
