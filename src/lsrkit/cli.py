"""Command-line surface: encode, index, search, eval, train-head, ablate.

Exit codes: 0 success, 1 validation error (or a size that does not fit in memory), 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ValidationError, load_config
from .encoders import write_head_parameters
from . import pipeline


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="method config JSON")
    p.add_argument("--seed", type=int, default=None, help="overrides the config backbone seed")
    p.add_argument("--output", required=True, help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lsrkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a collection into sparse vectors (JSONL)")
    _add_common(p)
    p.add_argument("--side", choices=["query", "doc"], required=True)
    p.add_argument("--input", required=True, help="collection file (doc_id<TAB>tokens)")

    p = sub.add_parser("index", help="build an impact index from encoded vectors")
    _add_common(p)
    p.add_argument("--vectors", required=True, help="encoded-vector JSONL")

    p = sub.add_parser("search", help="run top-k retrieval, write a TREC run file")
    _add_common(p)
    p.add_argument("--index", required=True, help="index directory")
    p.add_argument("--queries", required=True, help="encoded query vectors JSONL")

    p = sub.add_parser("eval", help="compute MRR/NDCG/Recall from a run file and qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--output", required=True, help="metrics JSON path ('-' for stdout)")
    p.add_argument("--mrr-k", type=int, default=10)
    p.add_argument("--ndcg-k", type=int, default=10)
    p.add_argument("--recall-k", type=int, default=1000)

    p = sub.add_parser("train-head", help="train head parameters on the configured triples")
    _add_common(p)
    p.add_argument("--doc-output", default=None, help="doc-side heads path (required unless the config shares heads)")

    p = sub.add_parser("ablate", help="single-component ablation report")
    _add_common(p)
    p.add_argument("--toggle", action="append", default=[], help="e.g. query_encoder=mlp (repeatable)")
    p.add_argument("--workdir", default=None, help="directory for intermediate artifacts")
    p.add_argument("--train", action="store_true", help="train heads before evaluating")
    p.add_argument("--recall-k", type=int, default=1000)
    return parser


def _seed(args, config) -> int:
    return args.seed if args.seed is not None else config.backbone_seed


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            metrics = pipeline.run_eval(
                Path(args.run),
                Path(args.qrels),
                ks={"mrr": args.mrr_k, "ndcg": args.ndcg_k, "recall": args.recall_k},
            )
            payload = json.dumps(metrics, indent=2)
            if args.output == "-":
                print(payload)
            else:
                Path(args.output).write_text(payload + "\n", encoding="utf-8")
            return 0

        config = load_config(args.config)
        seed = _seed(args, config)
        if args.command == "encode":
            info = pipeline.run_encode(config, args.side, Path(args.input), Path(args.output), seed)
            print(json.dumps(info))
        elif args.command == "index":
            info = pipeline.run_index(config, Path(args.vectors), Path(args.output))
            print(json.dumps(info))
        elif args.command == "search":
            info = pipeline.run_search(config, Path(args.index), Path(args.queries), Path(args.output))
            print(json.dumps(info))
        elif args.command == "train-head":
            doc_output = Path(args.doc_output or args.output)
            if not config.shared_heads and doc_output.resolve() == Path(args.output).resolve():
                raise ValidationError(f"{args.config}: heads are not shared, so --doc-output must name a file "
                                      "other than --output")
            result = pipeline.run_train(config, seed)
            write_head_parameters(result.query_heads, Path(args.output))
            write_head_parameters(result.doc_heads, doc_output)
            print(json.dumps({"steps": len(result.loss_history), "final_loss": result.loss_history[-1]}))
        elif args.command == "ablate":
            workdir = Path(args.workdir) if args.workdir else Path(args.output).parent / "ablate_work"
            reports = pipeline.run_ablation(
                config, args.toggle, workdir, seed, train=args.train, recall_k=args.recall_k
            )
            Path(args.output).write_text(pipeline.report_json(reports) + "\n", encoding="utf-8")
            print(pipeline.format_report(reports))
        return 0
    except ValueError as e:  # includes config.ValidationError
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy's error names the shape it could not allocate
        print(f"error: out of memory ({e})", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
