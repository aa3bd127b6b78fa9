"""CCS005 positives: durable file operations that bypass the storage."""
import os
from pathlib import Path


def log_line(path, text):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)
    with open(path, mode="ab") as fh:
        fh.write(text.encode("utf-8"))
    with Path(path).open("a+") as fh:
        fh.write(text)


def publish(path, tmp, text):
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    Path(path).with_suffix(".bak").write_text(text)


def damage(path):
    with open(path, "r+b") as fh:
        fh.truncate(1)
    Path(path).unlink()
