"""CCS005 negatives: reads, and durable operations through a storage."""
from pathlib import Path


def rewrite(storage, path, text):
    storage.publish(path, [text.encode("utf-8")])
    with storage.read(path) as fh:
        return fh.read()


def cut(journal, size):
    journal.storage.truncate(journal.handle, size)
    with Path(journal.path).open("r", encoding="utf-8") as fh:
        return fh.read().replace("\n", " ")
