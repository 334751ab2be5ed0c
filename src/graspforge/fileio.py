"""The one way the package writes an output file."""

import os
from pathlib import Path


def atomic_write(path: str | Path, data: bytes | str) -> None:
    """Write through a sibling temporary file, so a reader never sees a
    partly written file. Creates the parent directory; text goes as UTF-8."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data.encode() if isinstance(data, str) else data)
    os.replace(tmp, path)
