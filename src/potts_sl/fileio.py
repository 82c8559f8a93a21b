"""Binary file formats and field visualization.

Images are binary PPM (P6, maxval 255); label maps and scribbles are binary
PGM (P5, maxval 255) where a pixel value v in 1..K is class v and 255 means
unlabeled/ignore. Probability fields use a little "PFLD" container: 16-byte
header (magic + u32 LE height, width, classes) followed by H*W*K float32
little-endian values, pixel-major then class. All writers are deterministic,
and read/write round-trips are bit-exact at the stored precision.
"""

from __future__ import annotations

import struct

import numpy as np

from .affinity import Image
from .errors import DataError
from .simplex import ProbField, ScribbleField

UNLABELED_BYTE = 255

PFLD_MAGIC = b"PFLD"

# First 21 entries of the classic segmentation palette (bit-reversal scheme).
DEFAULT_PALETTE = [
    (0, 0, 0), (128, 0, 0), (0, 128, 0), (128, 128, 0),
    (0, 0, 128), (128, 0, 128), (0, 128, 128), (128, 128, 128),
    (64, 0, 0), (192, 0, 0), (64, 128, 0), (192, 128, 0),
    (64, 0, 128), (192, 0, 128), (64, 128, 128), (192, 128, 128),
    (0, 64, 0), (128, 64, 0), (0, 192, 0), (128, 192, 0),
    (0, 64, 128),
]


def _read_netpbm_header(data: bytes, magic: bytes, path):
    """Parse 'P6'/'P5' header; returns (width, height, offset of pixel data)."""
    if not data.startswith(magic):
        raise DataError(f"{path}: expected magic {magic.decode()} header")
    pos = len(magic)
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise DataError(f"{path}: truncated header")
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        elif c.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            fields.append(int(data[start:pos]))
        else:
            raise DataError(f"{path}: malformed header byte {c!r}")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise DataError(f"{path}: missing separator after header")
    pos += 1
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise DataError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 is supported, got {maxval}")
    return width, height, pos


def read_image(path) -> Image:
    """Read a binary PPM (P6) file."""
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, pos = _read_netpbm_header(data, b"P6", path)
    need = width * height * 3
    payload = data[pos : pos + need]
    if len(payload) != need:
        raise DataError(f"{path}: truncated pixel data ({len(payload)} of {need} bytes)")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return Image(arr.copy())


def write_image(image: Image, path):
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (image.width, image.height))
        fh.write(image.data.tobytes())


def read_label_map(path) -> np.ndarray:
    """Read a binary PGM (P5) as a raw (H, W) uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, pos = _read_netpbm_header(data, b"P5", path)
    need = width * height
    payload = data[pos : pos + need]
    if len(payload) != need:
        raise DataError(f"{path}: truncated pixel data ({len(payload)} of {need} bytes)")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()


def read_scribbles(path, classes: int | None = None) -> ScribbleField:
    """Read scribbles from a PGM: values 1..K are classes, 255 is unlabeled.

    When `classes` is given, values outside 1..classes (other than 255) are
    rejected; otherwise any value in 1..254 is accepted.
    """
    raw = read_label_map(path).astype(np.int64)
    limit = 254 if classes is None else classes
    bad = (raw != UNLABELED_BYTE) & ((raw < 1) | (raw > limit))
    if np.any(bad):
        value = int(raw[bad][0])
        raise DataError(f"{path}: illegal scribble value {value} (K={limit})")
    return ScribbleField(np.where(raw == UNLABELED_BYTE, 0, raw))


def write_labels(labels: np.ndarray, path):
    """Write a (H, W) 1-based label map as binary PGM; 0 becomes 255."""
    lab = np.asarray(labels, dtype=np.int64)
    if lab.ndim != 2:
        raise DataError("label map must be 2-D")
    if lab.min() < 0 or lab.max() > 254:
        raise DataError("label values must lie in 0..254")
    out = np.where(lab == 0, UNLABELED_BYTE, lab).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (lab.shape[1], lab.shape[0]))
        fh.write(out.tobytes())


def read_ground_truth(path, classes: int) -> np.ndarray:
    """Read a PGM ground-truth map: values 1..K, 255 = ignore (kept as 255)."""
    raw = read_label_map(path).astype(np.int64)
    bad = (raw != UNLABELED_BYTE) & ((raw < 1) | (raw > classes))
    if np.any(bad):
        raise DataError(f"{path}: illegal label value {int(raw[bad][0])} (K={classes})")
    return raw


def write_probfield(field: ProbField, path):
    """Write a ProbField in the PFLD container (float32 little-endian)."""
    with open(path, "wb") as fh:
        fh.write(PFLD_MAGIC)
        fh.write(struct.pack("<III", field.height, field.width, field.classes))
        fh.write(field.data.astype("<f4").tobytes())


def read_probfield(path) -> ProbField:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16 or data[:4] != PFLD_MAGIC:
        raise DataError(f"{path}: not a PFLD file (bad magic)")
    height, width, classes = struct.unpack("<III", data[4:16])
    if height < 1 or width < 1 or classes < 2:
        raise DataError(f"{path}: bad PFLD dimensions {height}x{width}x{classes}")
    need = height * width * classes * 4
    payload = data[16 : 16 + need]
    if len(payload) != need:
        raise DataError(f"{path}: truncated PFLD payload ({len(payload)} of {need} bytes)")
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return ProbField(values.reshape(height, width, classes))


def visualize(field: ProbField, palette=None) -> Image:
    """Render a soft label field as the per-pixel convex combination of
    palette colors, rounded half-up to integer channels."""
    if palette is None:
        palette = DEFAULT_PALETTE[: field.classes]
    colors = np.asarray(palette, dtype=np.float64)
    if colors.shape != (field.classes, 3):
        raise DataError(
            f"palette must supply {field.classes} RGB colors, got shape {colors.shape}"
        )
    mixed = field.data @ colors
    rounded = np.floor(mixed + 0.5)  # round half up, bit-exact golden images
    return Image(np.clip(rounded, 0, 255))
