"""The bytes of a saved index directory and of a saved dictionary.

Each file is pinned by its sha256, so that a change to how an index, its
tokenizer, its MI table or a dictionary is built or written shows here
even when every file still loads back to equal statistics.  A deliberate
change to a format records new digests with its own reason.
"""

import hashlib

from probir import cli
from probir.clir import build_dictionary
from probir.corpus import CHARACTER_MODE, TokenizerConfig
from probir.segmentation import (
    RatioTarget,
    build_mi_table,
    calibrate_kcmi,
    collection_sentences,
)

from corpus_builders import CHAR_ROWS, make_collection

# repeats, a shared target, multi-word and non-ASCII phrases, a blank
# source, an empty target and a side with no keywords
PAIRS = [
    (["hund"], ["dog"]),
    (["hund", "große katze"], ["dog", "big cat"]),
    (["  ", "rot"], ["red", ""]),
    (["blau"], []),
    ([], ["green"]),
    (["東京 駅"], ["Tokyo station"]),
    (["hund"], ["hound"]),
]

# index format 3 (each title and body one string) changed the token
# index's documents.json and both meta.json files; the character index's
# documents.json was already one string per field
TOKEN_INDEX = {
    "documents.json": "e3efbf27d3c9da41059457bd0939ae117fc82f234a79017ad1c387012ac84ec4",
    "meta.json": "a9e492a56287422c596ad8bcf45b9ff21d27c42144de7728b7d6bb1f41c1f91d",
    "tokenizer.json": "fbf7048b6ce0ce88964fe6d1bd83b8462bb8fdfe5b79f5e967267e2e0d666725",
}
CHARACTER_INDEX = {
    "documents.json": "bce9884f0ffbb758c1e9ce36d4ab63aff8dc60d773fa4b34005ecab82c94b75e",
    "meta.json": "7a3c8289896b58b806672172c322e7b494666742b618fb9809de6821e2dc2996",
    "tokenizer.json": "d816c03dbc0b3b06998aa8a4c95c050b48c876b163938e3aa4ee5a5f428e394a",
    "mi.json": "a62079377f1e7a638e1f2e4c4a03017481c52e84d93b6076a03056dd2e80b714",
}
DICTIONARY = "b99acdebd20b96b7bab195d0ec23aac7ff0bcec6dad68bb370a7223a0385ad87"


def digests(directory):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in directory.iterdir()}


def test_token_index_files(tmp_path, toy_index):
    toy_index.save(tmp_path)
    cli._save_tokenizer(tmp_path, TokenizerConfig())
    assert digests(tmp_path) == TOKEN_INDEX


def test_character_index_files(tmp_path, char_index):
    config = TokenizerConfig(mode=CHARACTER_MODE)
    char_index.save(tmp_path)
    cli._save_tokenizer(tmp_path, config)
    # the MI table and threshold as `probir index --mode character` makes them
    sentences = collection_sentences(make_collection(CHAR_ROWS), config)
    table = build_mi_table(sentences)
    cli._save_mi(tmp_path, table, calibrate_kcmi(sentences, table, RatioTarget()))
    assert digests(tmp_path) == CHARACTER_INDEX


def test_dictionary_file(tmp_path):
    build_dictionary(PAIRS).save(tmp_path / "dict.tsv")
    assert digests(tmp_path) == {"dict.tsv": DICTIONARY}
    assert (tmp_path / "dict.tsv").read_text(encoding="utf-8") == (
        "große katze\tbig cat\t1\n"
        "große katze\tdog\t1\n"
        "hund\tdog\t2\n"
        "hund\tbig cat\t1\n"
        "hund\thound\t1\n"
        "rot\tred\t1\n"
        "東京 駅\tTokyo station\t1\n")
