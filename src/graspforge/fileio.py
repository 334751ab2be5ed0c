"""The one way the package reads an input file and writes an output file."""

import os
from pathlib import Path

from .errors import DatasetNotFound, DegenerateInput, GraspForgeError


def atomic_write(path: str | Path, data: bytes | str) -> None:
    """Write through a sibling temporary file, so a reader never sees a
    partly written file. Creates the parent directory; text goes as UTF-8."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data.encode() if isinstance(data, str) else data)
    os.replace(tmp, path)


def read_input(path: str | Path, parse):
    """parse(bytes) of the file at path. A missing file raises
    DatasetNotFound, passed on unchanged from a file parse reads in turn; an
    unreadable file, or one parse rejects (bad UTF-8 or JSON, a missing key,
    a wrong type or value), raises one DegenerateInput naming it."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise DatasetNotFound(str(path)) from None
    except OSError as exc:
        raise DegenerateInput(f"{path}: cannot read it ({exc.strerror})") from None
    try:
        return parse(data)
    except DatasetNotFound:
        raise
    except GraspForgeError as exc:
        raise DegenerateInput(f"{path}: {exc}") from None
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
        raise DegenerateInput(f"{path}: {type(exc).__name__}: {exc}") from None


def require_keys(obj, keys, where: str) -> None:
    """Raise DegenerateInput naming `where` unless `obj` is a JSON object
    holding every key in `keys`."""
    if not isinstance(obj, dict):
        raise DegenerateInput(f"{where}: expected a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise DegenerateInput(f"{where}: missing key(s) {', '.join(missing)}")
