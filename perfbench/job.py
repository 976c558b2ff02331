"""One benchmark job: a fresh process that runs ``dksom.cli.main(["train", ...])``.

Usage: job.py SRC_DIR RESULT_JSON {plain,trace} -- TRAIN_ARGS...

Plain mode wraps only the two input loaders, to stamp the moment the
loader returns; trace mode also stamps the end of the ``dksom.cli``
import, the peak RSS at loader return, and records spans (see spans.py).
The stamps go to RESULT_JSON when the job ends; the exit code is
``cli.main``'s.
"""

import json
import resource
import sys
from pathlib import Path

from spans import Recorder, now_ns


def main() -> int:
    src, result_path, mode, sep, *train_args = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "trace"):
        raise SystemExit(f"usage: {__doc__.splitlines()[2]}")
    sys.path.insert(0, src)
    import dksom
    import dksom.cli as cli

    if not Path(dksom.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"dksom imported from {dksom.__file__}, not from {src}")
    stamps = {}
    if mode == "trace":
        stamps["imported_ns"] = now_ns()
        recorder = Recorder()
        recorder.install(dksom)

    def stamp_loader(loader):
        def wrapper(*args, **kwargs):
            out = loader(*args, **kwargs)
            stamps["loaded_ns"] = now_ns()
            if mode == "trace":
                stamps["load_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            return out

        return wrapper

    cli.load_matrix = stamp_loader(cli.load_matrix)
    cli.load_vectors = stamp_loader(cli.load_vectors)
    code = cli.main(["train", *train_args])
    if mode == "trace":
        stamps["spans"] = recorder.spans
    Path(result_path).write_text(json.dumps(stamps))
    return code


if __name__ == "__main__":
    sys.exit(main())
