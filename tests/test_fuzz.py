"""Fuzz tests of the two file readers: `load_model` and `load_csv`.

Whatever the bytes, a reader either returns its object or raises one of the
package's typed errors; nothing else may escape. A model file that declares
a huge dimension must fail before the payload it declares is allocated.
"""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subspace_net.data import Dataset, load_csv
from subspace_net.errors import ModelFormatError, ParseError, SubspaceNetError
from subspace_net.layer import SubspaceLayer
from subspace_net.network import SubspaceNetwork, load_model, save_model

# writing one file per example into the test's tmp_path is safe: each
# example overwrites it
FILE_EXAMPLES = settings(max_examples=300,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])

# offsets into the body (the bytes between magic and checksum) of the u32
# dimension fields of a two-layer file with t=2, d=3, r=1, concat skips
HEADER_DIMS = {"input_dim": 5, "task_dim": 9, "depth": 13}
LAYER_BYTES = 20 + 8 * (2 + 2 * 1 + 1 * 3)  # layer 0: d_in, t_out, r, lam, data
LAYER_DIMS = {f"layer{k}.{name}": 17 + k * LAYER_BYTES + 4 * j
              for k in (0, 1) for j, name in enumerate(("d_in", "t_out", "r"))}


def small_model_blob(tmp_path) -> bytes:
    rng = np.random.default_rng(40)
    layers = [SubspaceLayer(U=rng.standard_normal((2, 1)),
                            V=rng.standard_normal((1, d_in)),
                            sigma=np.full(2, 0.5), lam=1e-3)
              for d_in in (3, 5)]
    path = tmp_path / "small.ssnw"
    save_model(SubspaceNetwork(layers=layers, skip_mode="concat"), path)
    return path.read_bytes()


def with_body(blob: bytes, body: bytes) -> bytes:
    """The file with ``body`` in place of its body and a matching checksum."""
    return blob[:4] + body + struct.pack("<I", zlib.crc32(body))


def load_or_typed_error(path):
    try:
        return load_model(path)
    except SubspaceNetError:
        return None


class TestLoadModelFuzz:
    def test_layout_offsets(self, tmp_path):
        blob = small_model_blob(tmp_path)
        body = blob[4:-4]
        assert len(body) == 17 + LAYER_BYTES + 20 + 8 * (2 + 2 + 5)
        dims = {name: struct.unpack_from("<I", body, at)[0]
                for name, at in {**HEADER_DIMS, **LAYER_DIMS}.items()}
        assert dims == {"input_dim": 3, "task_dim": 2, "depth": 2,
                        "layer0.d_in": 3, "layer0.t_out": 2, "layer0.r": 1,
                        "layer1.d_in": 5, "layer1.t_out": 2, "layer1.r": 1}

    def test_every_truncation_is_a_format_error(self, tmp_path):
        blob = small_model_blob(tmp_path)
        path = tmp_path / "cut.ssnw"
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(ModelFormatError):
                load_model(path)

    def test_every_bit_flip_with_valid_checksum(self, tmp_path):
        blob = small_model_blob(tmp_path)
        body = blob[4:-4]
        path = tmp_path / "flip.ssnw"
        for bit in range(8 * len(body)):
            flipped = bytearray(body)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(with_body(blob, bytes(flipped)))
            net = load_or_typed_error(path)
            assert net is None or isinstance(net, SubspaceNetwork)

    @FILE_EXAMPLES
    @given(data=st.data())
    def test_overwritten_bytes_with_valid_checksum(self, tmp_path, data):
        blob = small_model_blob(tmp_path)
        body = bytearray(blob[4:-4])
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(body) - 1))
            body[at] = data.draw(st.integers(0, 255))
        path = tmp_path / "fuzz.ssnw"
        path.write_bytes(with_body(blob, bytes(body)))
        net = load_or_typed_error(path)
        assert net is None or isinstance(net, SubspaceNetwork)

    @pytest.mark.parametrize("field", sorted({**HEADER_DIMS, **LAYER_DIMS}))
    def test_huge_dimension_fails_before_allocating(self, tmp_path, field):
        blob = small_model_blob(tmp_path)
        body = bytearray(blob[4:-4])
        at = {**HEADER_DIMS, **LAYER_DIMS}[field]
        body[at:at + 4] = struct.pack("<I", 2**32 - 1)
        path = tmp_path / "huge.ssnw"
        path.write_bytes(with_body(blob, bytes(body)))
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError):
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float64 row of the declared size would be 32 GiB
        assert peak < 1 << 20, peak


# bytes that reach every branch of the CSV reader: numbers, separators,
# quoting, blank cells, non-finite and negative values, NUL and bytes that
# are not UTF-8
CSV_PIECES = [b"0", b"1", b"7", b"-", b".", b"e", b"5e-3", b",", b"\n", b"\r\n",
              b"\r", b'"', b" ", b"nan", b"inf", b"x", b"\x00", b"\xff", b"\xc3",
              b"\xc3\xa9"]
csv_bytes = st.one_of(
    st.binary(max_size=64),
    st.lists(st.sampled_from(CSV_PIECES), max_size=40).map(b"".join))


class TestLoadCsvFuzz:
    @FILE_EXAMPLES
    @given(features=csv_bytes, targets=csv_bytes)
    def test_dataset_or_parse_error(self, tmp_path, features, targets):
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        fx.write_bytes(features)
        fy.write_bytes(targets)
        try:
            data = load_csv(fx, fy)
        except ParseError:
            return
        assert isinstance(data, Dataset)
        assert data.d >= 1 and data.t >= 1
