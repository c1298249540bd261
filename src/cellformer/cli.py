"""Command-line surface: corpus generation, pre-training, fine-tuning, the
ablation harness, and the gradient oracle.

Every command prints its fully resolved configuration and is deterministic
given that configuration. Exit codes: 0 success, 1 usage/config error or
other failed file operation, 2 data error, 3 gradient-check failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint, snapshot
from .config import ConfigError, apply_settings, config_lines, parse_kv_file
from .dataio import (
    DataError, MetricsLog, read_cell_jsonl, read_metrics, read_tagging_examples,
    write_cell_jsonl, write_cls_jsonl, write_qa_jsonl, write_report, write_tagging_jsonl,
)
from .gradcheck import REL_TOL, run_grad_check
from .model import ModelConfig
from .pretrain import PretrainConfig
from .synth import (
    QUESTION_WORDS, SynthConfig, gen_cls_dataset, gen_form_dataset,
    gen_pretrain_corpus, gen_qa_dataset, vocab_words,
)
from .taskdata import split_train_eval
from .tasks import TASKS, finetune
from .trainer import Pretrainer, TrainConfig
from .vocab import Vocab, build_vocab

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_CHECK = 3

ABLATION_VARIANTS = ("full", "no_cpc", "word_level", "no_pretrain")


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        raise ConfigError(message)


_FROM_VOCAB = {"vocab_size": "derived from the vocabulary file"}
# set by ablate itself, so its resolved configuration leaves them out
_PER_VARIANT = {
    "layout_mode": "chosen per ablation variant",
    "steps": "use pretrain_steps / finetune_steps for ablation",
}

# The config classes each command reads, and the fields among them that the
# command fixes itself, with the reason: a fixed field gets no flag, and a
# config file that sets it is rejected.
SETTINGS = {
    "gen-corpus": ((SynthConfig,), {}),
    "pretrain": ((ModelConfig, TrainConfig, PretrainConfig), _FROM_VOCAB),
    "finetune": ((ModelConfig, TrainConfig), _FROM_VOCAB),
    "ablate": ((ModelConfig, TrainConfig, PretrainConfig), {**_FROM_VOCAB, **_PER_VARIANT}),
}


def _add_settings(parser, command):
    """One string-valued flag per setting of `command`; coercion happens
    later in apply_settings so files and flags share one type path."""
    classes, fixed = SETTINGS[command]
    for cls in classes:
        for f in dataclasses.fields(cls):
            if f.name not in fixed:
                parser.add_argument(
                    "--" + f.name.replace("_", "-"),
                    dest=f.name,
                    default=argparse.SUPPRESS,
                    metavar="V",
                    help=f"{cls.__name__}.{f.name} (default {f.default!r})",
                )


def _resolve(instances, args, fixed=None):
    """defaults -> config file -> explicit flags, for the fields of
    `instances`; `fixed` (default: the command's) are rejected."""
    fixed = SETTINGS[args.command][1] if fixed is None else fixed
    layers = []
    if getattr(args, "config", None):
        layers.append((str(args.config), parse_kv_file(args.config)))
    ns = vars(args)
    layers.append(("command line", {f.name: ns[f.name] for inst in instances
                                    for f in dataclasses.fields(inst) if f.name in ns}))
    return apply_settings(instances, layers, fixed)


def _print_config(sections: dict, omit=()) -> None:
    print("resolved configuration:")
    for line in config_lines(sections, omit):
        print("  " + line)


def _split_labelled(examples, labels_path) -> tuple[list, list]:
    """The train/eval split, which holds out every fifth example, so needs 5."""
    train_set, eval_set = split_train_eval(examples)
    if not eval_set:
        raise DataError(f"{labels_path}: {len(examples)} labelled examples; at least "
                        "5 are needed, since every fifth is held out for evaluation")
    return train_set, eval_set


def _load_vocab(path) -> Vocab:
    try:
        return Vocab.from_lines(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise DataError(f"cannot read vocabulary {path}: {e}") from None
    except ValueError as e:
        raise DataError(f"bad vocabulary {path}: {e}") from None


# -- gen-corpus -------------------------------------------------------------


def cmd_gen_corpus(args) -> int:
    (synth_cfg,) = _resolve([SynthConfig()], args)
    _print_config({"corpus": synth_cfg})

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    corpus = gen_pretrain_corpus(synth_cfg)
    n_docs = write_cell_jsonl(corpus, out / "pretrain_docs.jsonl")

    words = [w for doc in corpus for c in doc.cells for w in c.text.split()]
    words.extend(vocab_words(synth_cfg))  # lexicon floor incl. question words
    words.extend(QUESTION_WORDS)
    vocab = build_vocab(words, synth_cfg.vocab_max_size)
    (out / "vocab.txt").write_text(vocab.to_lines(), encoding="utf-8")

    form = gen_form_dataset(synth_cfg, synth_cfg.num_form_docs)
    write_cell_jsonl([ex.doc for ex in form], out / "form_docs.jsonl")
    n_form = write_tagging_jsonl(form, out / "form_labels.jsonl")

    qa = gen_qa_dataset(synth_cfg, synth_cfg.num_qa_docs)
    write_cell_jsonl([ex.doc for ex in qa], out / "qa_docs.jsonl")
    n_qa = write_qa_jsonl(qa, out / "qa_labels.jsonl")

    cls = gen_cls_dataset(synth_cfg, synth_cfg.num_cls_docs)
    write_cell_jsonl([ex.doc for ex in cls], out / "cls_docs.jsonl")
    n_cls = write_cls_jsonl(cls, out / "cls_labels.jsonl")

    print(f"pretraining documents: {n_docs}")
    print(f"vocabulary size: {len(vocab)}")
    print(f"tagging examples: {n_form}")
    print(f"qa examples: {n_qa}")
    print(f"classification examples: {n_cls}")
    return EXIT_OK


# -- pretrain ----------------------------------------------------------------


def cmd_pretrain(args) -> int:
    vocab = _load_vocab(args.vocab)
    model_cfg, train_cfg, pre_cfg = _resolve(
        [ModelConfig(vocab_size=len(vocab)), TrainConfig(), PretrainConfig()], args
    )
    stop = train_cfg.steps if args.stop_after is None else args.stop_after
    if not 0 <= stop <= train_cfg.steps:
        raise ConfigError(f"--stop-after must be in [0, steps={train_cfg.steps}], "
                          f"got {stop}")
    resume = load_checkpoint(args.resume) if args.resume else None
    if resume is not None and resume.step > stop:
        raise ConfigError(f"the checkpoint is at step {resume.step}, past step {stop} "
                          "where this run stops")
    docs = read_cell_jsonl(args.corpus)

    _print_config({"model": model_cfg, "train": train_cfg, "objectives": pre_cfg})
    print(f"cpc={args.cpc} stop_after={stop}")

    try:
        trainer = Pretrainer(docs, vocab, model_cfg, train_cfg, pre_cfg,
                             use_cpc=args.cpc == "on", resume=resume)
    except ValueError as e:  # a setting or the resumed checkpoint does not fit
        raise ConfigError(str(e)) from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    keep = trainer.start_step  # a resumed run keeps the records before it
    with MetricsLog(out / "metrics.jsonl", keep) as mlog, \
         MetricsLog(out / "eval.jsonl", keep) as elog:
        history = trainer.run(metrics_log=mlog, eval_log=elog, stop_after=stop)
    save_checkpoint(out / "checkpoint.ckpt", trainer.to_checkpoint(step=stop))

    final = trainer.final_heldout()
    if history:
        print(f"final mvlm loss: {history[-1]['mvlm_loss']:.4f}")
    for key, value in final.items():
        print(f"{key}: {value:.4f}")
    print(f"checkpoint: {out / 'checkpoint.ckpt'}")
    return EXIT_OK


# -- finetune ----------------------------------------------------------------


def cmd_finetune(args) -> int:
    task = args.task
    vocab = _load_vocab(args.vocab) if args.vocab else None
    if args.init == "none":
        if vocab is None:
            raise ConfigError("--vocab is required when --init none")
        init, model_cfg, fixed = None, ModelConfig(vocab_size=len(vocab)), None
    else:
        init = load_checkpoint(args.init)
        if vocab is not None and vocab.id_to_token != init.vocab_tokens:
            raise ConfigError("--vocab differs from the checkpoint vocabulary")
        vocab, model_cfg = Vocab(init.vocab_tokens), init.model_config
        fixed = {f.name: "fixed by the checkpoint's model config"
                 for f in dataclasses.fields(ModelConfig)}
    model_cfg, train_cfg = _resolve([model_cfg, TrainConfig()], args, fixed)

    examples = TASKS[task].read(args.docs, args.labels)
    train_set, eval_set = _split_labelled(examples, args.labels)
    if task == "classification":
        for ex in examples:
            if not 0 <= ex.label < model_cfg.num_doc_classes:
                raise DataError(f"{args.labels}: document '{ex.doc.doc_id}': class label "
                                f"{ex.label} outside [0, {model_cfg.num_doc_classes})")
    _print_config({"model": model_cfg, "train": train_cfg})
    print(f"task={task} train={len(train_set)} eval={len(eval_set)}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with MetricsLog(out / "metrics.jsonl") as mlog:
        params, report = finetune(task, train_set, eval_set, vocab, model_cfg,
                                  train_cfg, init=init, metrics_log=mlog)

    fields = {"task": task, "init": args.init, "blas_threads": _blas_threads(),
              **_settings_fields(model_cfg, train_cfg), **report}
    write_report(out / "report.txt", fields)

    save_checkpoint(out / "checkpoint.ckpt",
                    snapshot(model_cfg, params, vocab.id_to_token, train_cfg.steps))

    for key, value in report.items():
        print(f"{key}: {value:.4f}")
    print(f"report: {out / 'report.txt'}")
    return EXIT_OK


# -- ablate -------------------------------------------------------------------


def cmd_ablate(args) -> int:
    variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    unknown = set(variants) - set(ABLATION_VARIANTS)
    if unknown:
        raise ConfigError(f"unknown ablation variants {sorted(unknown)}; "
                          f"valid: {', '.join(ABLATION_VARIANTS)}")
    if not variants:
        raise ConfigError("no ablation variants requested")

    vocab = _load_vocab(args.vocab)
    model_cfg, train_cfg, pre_cfg = _resolve(
        [ModelConfig(vocab_size=len(vocab)), TrainConfig(), PretrainConfig()], args
    )
    # pretrain_steps and the objectives only matter to a variant that pre-trains
    pretrains = bool(set(variants) - {"no_pretrain"})
    try:
        pt_cfg = (dataclasses.replace(train_cfg, steps=args.pretrain_steps)
                  if pretrains else None)
        ft_cfg = dataclasses.replace(train_cfg, steps=args.finetune_steps)
    except ValueError as e:
        raise ConfigError(f"pretrain_steps and finetune_steps: {e}") from None
    docs = read_cell_jsonl(args.corpus)
    examples = read_tagging_examples(args.form_docs, args.form_labels)
    train_set, eval_set = _split_labelled(examples, args.form_labels)
    sections = {"model": model_cfg, "train": train_cfg}
    if pretrains:
        sections["objectives"] = pre_cfg
    _print_config(sections, omit=_PER_VARIANT)
    pretrain_steps = f"pretrain_steps={args.pretrain_steps} " if pretrains else ""
    print(f"variants={','.join(variants)} {pretrain_steps}"
          f"finetune_steps={args.finetune_steps}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for variant in variants:
        (out / variant).mkdir(exist_ok=True)

    # Each variant runs in its own worker process, side by side with the
    # others. Every variant is seeded on its own and every worker is set up
    # alike, so a variant's results do not depend on what runs beside it.
    common = (docs, vocab, model_cfg, pt_cfg, ft_cfg, pre_cfg, train_set, eval_set)
    context = multiprocessing.get_context("spawn")
    with _one_blas_thread_per_worker(), ProcessPoolExecutor(
        max_workers=len(variants), mp_context=context,
    ) as pool:
        futures = {v: pool.submit(_run_variant, v, *common, out / v)
                   for v in variants}
    # a failed variant is marked in the table, and raised once it is written
    failures = {v: f.exception() for v, f in futures.items() if f.exception()}
    for variant, error in failures.items():
        logger.error("variant %s failed", variant, exc_info=error)
    results = {v: {"status": f"failed: {failures[v]}"} if v in failures
               else futures[v].result() for v in variants}

    table_lines = [f"{'variant':<14}{'f1':>8}  status"]
    for variant in variants:
        r = results[variant]
        f1 = f"{r['f1']:.4f}" if "f1" in r else "-"
        table_lines.append(f"{variant:<14}{f1:>8}  {r['status']}")

    ordering_note = _ordering_note(results)
    if ordering_note:
        table_lines.append(ordering_note)
    (out / "ablation.txt").write_text("\n".join(table_lines) + "\n",
                                      encoding="utf-8")
    print("\n".join(table_lines))

    if {"full", "word_level"} <= set(variants) - set(failures):
        cell, word = (read_metrics(out / v / "pretrain_metrics.jsonl")
                      for v in ("full", "word_level"))
        series = ["step\tcell_level\tword_level"]
        for a, b in zip(cell, word):
            series.append(f"{a['step']}\t{a['mvlm_loss']:.6f}\t{b['mvlm_loss']:.6f}")
        (out / "mvlm_loss_series.tsv").write_text("\n".join(series) + "\n",
                                                  encoding="utf-8")
        print(f"loss series: {out / 'mvlm_loss_series.tsv'}")
    if failures:
        raise next(iter(failures.values()))
    return EXIT_OK


# read by the BLAS library when numpy loads it; spawned workers inherit them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads() -> str:
    """The BLAS thread count the environment sets for this process, or
    `default`. It moves the last bits of a product, so every report
    records it."""
    for var in _BLAS_THREAD_VARS:
        if os.environ.get(var):
            return os.environ[var]
    return "default"


@contextlib.contextmanager
def _one_blas_thread_per_worker():
    """Workers spawned inside this block load BLAS with one thread, unless
    the caller set a count. At this model size a second thread barely
    speeds a product up, while workers that each start one thread per core
    contend for the cores: two pre-training runs side by side on 2 cores
    took 3.7x longer per step than with one thread each. The count also
    moves the last bits of a product, so all workers use the same one."""
    added = [var for var in _BLAS_THREAD_VARS if var not in os.environ]
    for var in added:
        os.environ[var] = "1"
    try:
        yield
    finally:
        for var in added:
            os.environ.pop(var, None)


def _settings_fields(model_cfg: ModelConfig, train_cfg: TrainConfig) -> dict:
    """The `model.*` and `train.*` lines of a fine-tuning report: every
    setting the model was built and fine-tuned with, written exactly, as
    the resolved configuration echoes it."""
    return {f"{title}.{f.name}": str(getattr(cfg, f.name))
            for title, cfg in (("model", model_cfg), ("train", train_cfg))
            for f in sorted(dataclasses.fields(cfg), key=lambda f: f.name)}


def _run_variant(variant, docs, vocab, model_cfg, pt_cfg, ft_cfg, pre_cfg,
                 train_set, eval_set, vdir) -> dict:
    """The variant's evaluation report and status; its pre-training records
    go to `vdir / "pretrain_metrics.jsonl"` and its held-out evaluations to
    `vdir / "pretrain_eval.jsonl"`."""
    layout = "word" if variant == "word_level" else "cell"
    vcfg = dataclasses.replace(model_cfg, layout_mode=layout)
    init = None
    fields = {"variant": variant, "blas_threads": _blas_threads(),
              **_settings_fields(vcfg, ft_cfg)}
    if variant != "no_pretrain":
        t0 = time.time()
        trainer = Pretrainer(docs, vocab, vcfg, pt_cfg, pre_cfg,
                             use_cpc=(variant != "no_cpc"))
        with MetricsLog(vdir / "pretrain_metrics.jsonl") as mlog, \
             MetricsLog(vdir / "pretrain_eval.jsonl") as elog:
            trainer.run(metrics_log=mlog, eval_log=elog)
        init = trainer.to_checkpoint()
        save_checkpoint(vdir / "pretrain.ckpt", init)
        fields.update(trainer.final_heldout())
        fields["pretrain_seconds"] = time.time() - t0

    t0 = time.time()
    with MetricsLog(vdir / "finetune_metrics.jsonl") as mlog:
        params, report = finetune("tagging", train_set, eval_set, vocab, vcfg,
                                  ft_cfg, init=init, metrics_log=mlog)
    fields["finetune_seconds"] = time.time() - t0
    save_checkpoint(vdir / "finetune.ckpt",
                    snapshot(vcfg, params, vocab.id_to_token, ft_cfg.steps))
    fields.update(report)
    write_report(vdir / "report.txt", fields)
    return {**report, "status": "ok"}


def _ordering_note(results: dict) -> str:
    """full >= each ablation, evaluated and flagged, never enforced."""
    if "f1" not in results.get("full", {}):
        return ""
    full = results["full"]["f1"]
    parts = []
    ok = True
    for variant in ("no_cpc", "word_level", "no_pretrain"):
        if "f1" in results.get(variant, {}):
            score = results[variant]["f1"]
            parts.append(f"{variant}({score:.4f})")
            ok &= full >= score
    if not parts:
        return ""
    return (f"# ordering full({full:.4f}) >= each of " + ", ".join(parts)
            + f": {'SATISFIED' if ok else 'VIOLATED'}")


# -- grad-check ----------------------------------------------------------------


def cmd_grad_check(args) -> int:
    passed, report = run_grad_check(seed=args.seed)
    print(f"{'parameter group':<24}{'max rel err':>14}{'probes':>8}")
    for name in sorted(report):
        err, n = report[name]
        print(f"{name:<24}{err:>14.3e}{n:>8}")
    print(f"tolerance: {REL_TOL:.0e}")
    print("grad check: " + ("PASS" if passed else "FAIL"))
    return EXIT_OK if passed else EXIT_CHECK


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cellformer",
                     description="Layout-aware document LM: corpus, training, "
                                 "ablation, and verification commands.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", parents=[], help="generate the synthetic corpus",
                       add_help=True)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="output directory")
    _add_settings(p, "gen-corpus")
    p.set_defaults(handler=cmd_gen_corpus)

    p = sub.add_parser("pretrain", help="run MVLM+CPC pre-training")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--corpus", required=True, help="cell-JSONL documents")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--cpc", choices=("on", "off"), default="on",
                   help="train the cell-position objective")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--stop-after", type=int, metavar="STEP",
                   help="stop after this step and save the checkpoint there "
                        "(default: run to --steps)")
    _add_settings(p, "pretrain")
    p.set_defaults(handler=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune on a task dataset")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--docs", required=True, help="cell-JSONL documents")
    p.add_argument("--labels", required=True, help="task-JSONL labels")
    p.add_argument("--init", required=True,
                   help="checkpoint path, or 'none' for random init")
    p.add_argument("--vocab", help="vocabulary file (required with --init none)")
    p.add_argument("--out", required=True, help="output directory")
    _add_settings(p, "finetune")
    p.set_defaults(handler=cmd_finetune)

    p = sub.add_parser("ablate", help="run the ablation matrix end to end")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--corpus", required=True, help="cell-JSONL pre-training docs")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--form-docs", required=True, help="tagging cell-JSONL")
    p.add_argument("--form-labels", required=True, help="tagging labels JSONL")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--variants", default=",".join(ABLATION_VARIANTS),
                   help="comma list: " + ",".join(ABLATION_VARIANTS))
    p.add_argument("--pretrain-steps", type=int, default=1200)
    p.add_argument("--finetune-steps", type=int, default=400)
    _add_settings(p, "ablate")
    p.set_defaults(handler=cmd_ablate)

    p = sub.add_parser("grad-check", help="finite-difference gradient oracle")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, CheckpointError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:  # e.g. an --out that is an existing file
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
