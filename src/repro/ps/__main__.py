"""Two-terminal deployment demo: one server process, N worker processes.

Both sides build the *same* standard workload (synthetic blobs + MLP)
from identical flags, so the only thing crossing between terminals is the
wire protocol — start the server in one terminal, then each worker in its
own::

    # terminal 1
    python -m repro.ps serve --bind 127.0.0.1:5555 --workers 2

    # terminals 2..N+1
    python -m repro.ps worker --connect 127.0.0.1:5555 --id 0
    python -m repro.ps worker --connect 127.0.0.1:5555 --id 1

Workers may start before the server: ``SocketChannel.connect`` retries
with capped exponential backoff for ``--retry-for`` seconds.  Flags that
shape the workload (``--method``, ``--iterations``, ``--batch-size``,
``--seed``) must match on every side; the demo has no config exchange.
``serve`` is the server half of the socket backend's engine
(:class:`repro.exec.RemoteTrainer`) with no forked workers, and ``worker``
builds its node the way that engine's forked workers do, so both sides
hold the same state as ``repro.exec.train(config, backend="socket")``.
The commands import :mod:`repro.exec` inside their bodies: it is the
layer above this package, and only this entry point reaches up to it.
"""

from __future__ import annotations

import argparse
import sys


def _config(args: argparse.Namespace, **fields):
    """The standard demo workload as a ``RunConfig``, derived only from
    the shared flags (``--iterations`` is per worker)."""
    from ..core.methods import Hyper
    from ..data.synthetic import make_blobs
    from ..exec import RunConfig
    from ..nn.models.mlp import MLP

    return RunConfig(
        args.method,
        lambda: MLP(12, (24,), 4, seed=7),
        make_blobs(n_samples=400, num_classes=4, dim=12, sep=2.5, noise=0.8, seed=1),
        num_workers=args.workers,
        batch_size=args.batch_size,
        total_iterations=args.iterations * args.workers,
        hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0),
        seed=args.seed,
        **fields,
    )


def _parse_endpoint(text: str) -> "tuple[str, int]":
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host or "127.0.0.1", int(port)


def _count(text: str) -> int:
    """A count flag: an integer of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _cadence(text: str) -> int:
    """A cadence flag: an integer of at least 0, where 0 means off."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _serve_trainer(args: argparse.Namespace):
    """The socket backend's engine for the ``serve`` flags; its workers
    are whoever connects."""
    from ..exec import RemoteTrainer

    config = _config(
        args,
        num_shards=args.shards,
        evict_after_s=args.evict_after,
        checkpoint_every=args.checkpoint_every or None,
        checkpoint_path=args.checkpoint,
        restore_from=args.restore,
        bind=args.bind,
    )
    return RemoteTrainer(config, "tcp")


def _cmd_serve(args: argparse.Namespace) -> int:
    trainer = _serve_trainer(args)
    if args.restore:
        print(f"restored t={trainer.server.timestamp} from {args.restore}", file=sys.stderr)
    listener = trainer.listen()
    host, port = listener.address
    print(
        f"serving {trainer.method.name} on {host}:{port} — waiting for {args.workers} worker(s)",
        file=sys.stderr,
    )
    result = trainer.serve([], listener=listener)
    if args.checkpoint_every:
        print(f"checkpoint written to {args.checkpoint}", file=sys.stderr)

    events = trainer.membership.snapshot()
    print(
        f"done: t={result.total_iterations} accuracy={result.final_accuracy:.3f} "
        f"loss={result.final_loss:.4f} "
        f"joins={events['joins']} leaves={events['leaves']} "
        f"crashes={events['crashes']} evictions={events['evictions']}"
    )
    for err in result.errors:
        print(f"partial run: {err}", file=sys.stderr)
    return 1 if result.errors else 0


def _worker_node(args: argparse.Namespace):
    """Worker ``--id`` as the socket backend builds it: the join handshake
    installs the live θ_t, exactly as a late joiner on any other host
    would receive it."""
    from ..exec.remote import build_remote_worker

    return build_remote_worker(_config(args), args.id)


def _cmd_worker(args: argparse.Namespace) -> int:
    from ..comm.protocol import run_worker_loop
    from ..comm.socket import SocketChannel

    node = _worker_node(args)
    host, port = args.connect
    channel = SocketChannel.connect(host, port, retry_for_s=args.retry_for)
    print(f"worker {args.id} connected to {host}:{port}", file=sys.stderr)
    run_worker_loop(node, channel, args.iterations)
    print(
        f"worker {args.id} done: {node.iteration} iterations, "
        f"final loss {node.last_loss:.4f}"
    )
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro.ps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p: argparse.ArgumentParser) -> None:
        p.add_argument("--method", default="dgs", help="method registry name (default dgs)")
        p.add_argument("--workers", type=_count, default=2, help="expected worker count")
        p.add_argument("--iterations", type=_count, default=50, help="iterations per worker")
        p.add_argument("--batch-size", type=_count, default=16)
        p.add_argument("--seed", type=int, default=0)

    p_serve = sub.add_parser("serve", help="bind the parameter server and wait for workers")
    shared(p_serve)
    p_serve.add_argument(
        "--bind",
        type=_parse_endpoint,
        default=("127.0.0.1", 5555),
        metavar="HOST:PORT",
        help="listener endpoint (default 127.0.0.1:5555; port 0 = ephemeral)",
    )
    p_serve.add_argument("--shards", type=_count, default=1, help="parameter-server shards")
    p_serve.add_argument(
        "--evict-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict a worker silent for this long (default: wait forever)",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=_cadence, default=None, metavar="N",
        help="write a checkpoint every N applied updates (requires --checkpoint; 0 = off)",
    )
    p_serve.add_argument("--checkpoint", metavar="PATH", help="checkpoint file to write")
    p_serve.add_argument("--restore", metavar="PATH", help="restore server state before serving")
    p_serve.set_defaults(fn=_cmd_serve)

    p_worker = sub.add_parser("worker", help="connect one worker and train")
    shared(p_worker)
    p_worker.add_argument(
        "--connect",
        type=_parse_endpoint,
        default=("127.0.0.1", 5555),
        metavar="HOST:PORT",
        help="server endpoint (default 127.0.0.1:5555)",
    )
    p_worker.add_argument("--id", type=int, required=True, help="this worker's id (0-based)")
    p_worker.add_argument(
        "--retry-for",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="keep retrying the connect with backoff for this long (default 10)",
    )
    p_worker.set_defaults(fn=_cmd_worker)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "worker" and not 0 <= args.id < args.workers:
        parser.error(f"--id must be in [0, --workers) = [0, {args.workers}), got {args.id}")
    if getattr(args, "checkpoint_every", None) and not args.checkpoint:
        parser.error("--checkpoint-every requires --checkpoint")
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
