"""SHA-256 digests of every finite-strand report, to compare two checkouts.

Writes the `fixtures generate` zoo and eight generated groupoids (pair(4),
pair(5), pair(6), pair(7), pair(12), transitive(2, S3), transitive(3, S3), and
transitive(2, S3) again with its arrow list shuffled by a fixed seed, so
arrow indices differ from the builder's order) into a temporary
directory, then runs `fdqg check`, `fdqg haar` and `fdqg reps` on
every file there, in process, from that directory.  Prints one
`sha256  path` line per input file, so the bytes `fixtures generate`
writes are pinned too, and one `sha256  argv` line per report, with paths
relative to that directory, so the output does not depend on where the
checkout or the directory lives.  Two checkouts write byte-identical files
and reports exactly when their outputs show no diff:

    PYTHONPATH=src python3 scripts/report_digest.py > new.txt
    diff old.txt new.txt
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile

from pcqg.cli import main as cli_main
from pcqg.fdpcqg import pair_groupoid, symmetric_groupoid, transitive_groupoid

GENERATED = {
    "pair4": pair_groupoid(list("abcd")),
    "pair5": pair_groupoid(list("abcde")),
    "pair6": pair_groupoid(list("abcdef")),
    "pair7": pair_groupoid(list("abcdefg")),
    "pair12": pair_groupoid(list("abcdefghijkl")),
    "transitive2_s3": transitive_groupoid(["a", "b"], symmetric_groupoid(3)),
    "transitive3_s3": transitive_groupoid(["a", "b", "c"], symmetric_groupoid(3)),
}
# the seeds of the files whose arrow lists are shuffled
SHUFFLED = {"transitive2_s3_shuffled": ("transitive2_s3", 0)}


def run(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(argv)
    return out.getvalue()


def write_inputs() -> list:
    """The instance files, relative to the working directory."""
    run(["fixtures", "generate", "--dir", "fixtures"])
    os.makedirs("generated")
    docs = {name: gpd.to_json_dict() for name, gpd in GENERATED.items()}
    for name, (source, seed) in SHUFFLED.items():
        docs[name] = GENERATED[source].to_json_dict()
        random.Random(seed).shuffle(docs[name]["arrows"])
    for name, doc in docs.items():
        with open(os.path.join("generated", f"{name}.groupoid.json"), "w") as fh:
            json.dump(doc, fh)
    return [os.path.join(d, f) for d in ("fixtures", "generated") for f in sorted(os.listdir(d))]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for path in write_inputs():
                with open(path, "rb") as fh:
                    print(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}")
                for mode in ("check", "haar", "reps"):
                    argv = ["fdqg", mode, path]
                    digest = hashlib.sha256(run(argv).encode()).hexdigest()
                    print(f"{digest}  {' '.join(argv)}")
        finally:
            os.chdir(here)


if __name__ == "__main__":
    main()
