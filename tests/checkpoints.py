"""Edits of a written `.gsq` container that `save_tensors` cannot make."""

import json
import struct

import numpy as np


def list_twice(path, name: str, value: float):
    """Append a second manifest entry and payload for tensor `name`, filled with `value`."""
    raw = path.read_bytes()
    (mlen,) = struct.unpack_from("<Q", raw, 8)
    manifest = json.loads(raw[16 : 16 + mlen])
    entry = next(e for e in manifest["tensors"] if e["name"] == name)
    manifest["tensors"].append(entry)
    payload = np.full(entry["shape"], value, dtype=np.dtype(entry["dtype"])).tobytes()
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + mlen :] + payload)
