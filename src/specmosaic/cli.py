"""Batch command-line surface.

Subcommands mirror the dataset workflow: ``mosaic``/``demosaic`` convert
single images, ``pairs`` builds the pseudo-paired dataset, ``select-hard``
filters it down to the artifact-prone subset, ``fvmap`` exports one
frequency-variation map, ``metrics`` scores reconstructions, and
``patchify`` cuts aligned patches.

Exit status: 0 on success, 2 on usage errors (argparse), 1 on processing
errors, which are reported on stderr with the failing record's index where
applicable. Warnings print on stderr as ``warning: {message}``. Outputs are
deterministic: same inputs and flags produce byte-identical files, stdout
and stderr regardless of ``SPECMOSAIC_THREADS``. ``main`` keeps freed heap in
the process and its workers; ``cli_dispatch`` leaves the allocator alone.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np

from ._version import TOOL_VERSION
from .core import DegenerateInputError, FormatError, SpecmosaicError, SpectralCube
from .core import _as_format_error
from .dataset import (
    MANIFEST_NAME,
    _patch_stem,
    _patch_stride,
    filter_hard,
    make_pseudo_pairs,
    patchify,
    read_manifest,
    record_pair,
)
from .demosaic import wb_bilinear
from .fileio import (
    _atomic_write_bytes,
    cube_stem,
    load_pattern_spec,
    read_cube,
    read_mosaic,
    read_sidecar,
    write_cube,
    write_fvmap,
    write_mosaic,
)
from .freqsel import FreqParams, SelectionParams, frequency_variation_map
from .metrics import evaluate_dataset
from .sfa import _check_bands, mosaic as sfa_mosaic

__all__ = ["cli_dispatch", "main"]

_FREQ_DEFAULTS = FreqParams()
_SEL_DEFAULTS = SelectionParams()


def _add_freq_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=_FREQ_DEFAULTS.epsilon,
                   help="log-magnitude guard (default %(default)s)")
    p.add_argument("--sigma", type=float, default=_FREQ_DEFAULTS.blur_sigma,
                   help="Gaussian smoothing sigma (default %(default)s)")
    p.add_argument("--radius", type=int, default=_FREQ_DEFAULTS.blur_radius,
                   help="Gaussian kernel half-width (default %(default)s)")
    p.add_argument("--r-low", type=float, default=_FREQ_DEFAULTS.r_low,
                   help="bandpass inner radius fraction (default %(default)s)")
    p.add_argument("--r-high", type=float, default=_FREQ_DEFAULTS.r_high,
                   help="bandpass outer radius fraction (default %(default)s)")


def _freq_params(args: argparse.Namespace) -> FreqParams:
    return FreqParams(
        epsilon=args.eps,
        blur_sigma=args.sigma,
        blur_radius=args.radius,
        r_low=args.r_low,
        r_high=args.r_high,
    )


def _cmd_mosaic(args: argparse.Namespace) -> int:
    pattern = load_pattern_spec(args.pattern)
    cube = read_cube(args.cube)
    write_mosaic(sfa_mosaic(cube, pattern), args.output, pattern=pattern)
    return 0


def _cmd_demosaic(args: argparse.Namespace) -> int:
    pattern = load_pattern_spec(args.pattern)
    mosaic_img = read_mosaic(args.mosaic)
    write_cube(wb_bilinear(mosaic_img, pattern), args.output, pattern=pattern)
    return 0


def _cmd_pairs(args: argparse.Namespace) -> int:
    pattern = load_pattern_spec(args.pattern)
    cube_dir = Path(args.cube_dir)
    if not cube_dir.is_dir():
        raise FormatError(f"{cube_dir} is not a directory")
    sources = sorted(cube_dir.glob("*.bsq"))
    if not sources:
        raise DegenerateInputError(f"no .bsq cubes found in {cube_dir}")
    records = make_pseudo_pairs(
        sources,
        pattern,
        args.output,
        patch=tuple(args.patch) if args.patch else None,
        stride=args.stride,
        augment=args.augment,
    )
    print(f"{len(records)} records -> {Path(args.output) / MANIFEST_NAME}")
    return 0


def _cmd_select_hard(args: argparse.Namespace) -> int:
    sparams = SelectionParams(t_var=args.t_var, t_cnt=args.t_cnt)
    kept = filter_hard(args.manifest, _freq_params(args), sparams, out_path=args.output)
    print(f"{len(kept)} hard records -> {args.output}")
    return 0


def _cmd_fvmap(args: argparse.Namespace) -> int:
    a = read_cube(args.cube_a)
    b = read_cube(args.cube_b)
    fv = frequency_variation_map(a, b, _freq_params(args))
    write_fvmap(fv, args.output, pgm=args.pgm)
    return 0


def _clamped(recon: SpectralCube, clamp: bool) -> SpectralCube:
    return SpectralCube(np.clip(recon.data, 0.0, 1.0)) if clamp else recon


def _manifest_pair(base: Path, clamp: bool, rec):
    ref, recon = record_pair(base, rec)
    return _clamped(recon, clamp), ref


def _listed_pair(path: Path, clamp: bool, n: int, line: str):
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"{path} line {n + 1}: expected '<recon> <ref>', got {line!r}")
    return _clamped(read_cube(parts[0]), clamp), read_cube(parts[1])


def _cmd_metrics(args: argparse.Namespace) -> int:
    path, clamp = Path(args.input), args.clamp
    with _as_format_error(f"input {path}"), path.open(encoding="utf-8") as f:
        head = next((ln.strip() for ln in f if ln.strip()), "")
    if path.suffix == ".jsonl" or head.startswith("{"):
        form = "manifest"
        loaders = [partial(_manifest_pair, path.parent, clamp, rec) for rec in read_manifest(path)]
    else:
        form = "pair list"
        with _as_format_error(f"{form} {path}"):
            text = path.read_text(encoding="utf-8")
        # Split as read_manifest does: splitlines() would also break at
        # U+0085, U+2028 and U+2029, and report a fragment of the line.
        loaders = [
            partial(_listed_pair, path, clamp, n, line.strip())
            for n, line in enumerate(text.split("\n"))
            if line.strip() and not line.strip().startswith("#")
        ]
    if not loaders:
        raise DegenerateInputError(f"{form} {path} has no pairs to score")
    report = evaluate_dataset(loaders)
    _atomic_write_bytes(Path(args.output), report.to_json().encode("utf-8"))
    print(
        f"{len(report.per_image)} pairs: psnr {report.mean_psnr:.4f} dB, "
        f"ssim {report.mean_ssim:.6f}, sam {report.mean_sam:.6f} deg"
    )
    return 0


def _cmd_patchify(args: argparse.Namespace) -> int:
    stride = _patch_stride(*args.patch, args.stride)
    pattern = load_pattern_spec(args.pattern)
    cube, side = read_cube(args.cube), read_sidecar(args.cube)
    _check_bands(cube, pattern, f"cube {args.cube}")
    pieces = patchify(cube, *args.patch, stride, pattern.period)
    out = Path(args.output)
    stem = cube_stem(args.cube).name
    for origin, piece in pieces:
        write_cube(piece, out / _patch_stem(stem, origin), pattern=pattern,
                   wavelengths_nm=side.wavelengths_nm)
    print(f"{len(pieces)} patches -> {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmosaic",
        description="Filter-array mosaicing, demosaicing, hard-patch mining, "
                    "and reconstruction scoring.",
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mosaic", help="sample a cube through a filter pattern")
    p.add_argument("cube")
    p.add_argument("--pattern", required=True, help="NxN or pattern JSON path")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_mosaic)

    p = sub.add_parser("demosaic", help="bilinear reconstruction of a mosaic")
    p.add_argument("mosaic")
    p.add_argument("--pattern", required=True, help="NxN or pattern JSON path")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_demosaic)

    p = sub.add_parser("pairs", help="build the pseudo-paired dataset")
    p.add_argument("cube_dir")
    p.add_argument("--pattern", required=True, help="NxN or pattern JSON path")
    p.add_argument("--augment", action="store_true",
                   help="emit all square-symmetry variants of each cube")
    p.add_argument("--patch", nargs=2, type=int, metavar=("H", "W"))
    p.add_argument("--stride", type=int, default=None,
                   help="window stride (default: side of a square patch)")
    p.add_argument("-o", "--output", required=True, help="output dataset directory")
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("select-hard", help="filter a manifest down to hard records")
    p.add_argument("manifest")
    _add_freq_flags(p)
    p.add_argument("--t-var", type=float, default=_SEL_DEFAULTS.t_var,
                   help="bin intensity threshold (default %(default)s)")
    p.add_argument("--t-cnt", type=int, default=_SEL_DEFAULTS.t_cnt,
                   help="suprathreshold bin count threshold (default %(default)s)")
    p.add_argument("-o", "--output", required=True, help="filtered manifest path")
    p.set_defaults(func=_cmd_select_hard)

    p = sub.add_parser("fvmap", help="frequency-variation map of two cubes")
    p.add_argument("cube_a")
    p.add_argument("cube_b")
    _add_freq_flags(p)
    p.add_argument("-o", "--output", required=True, help="output map (1-band cube)")
    p.add_argument("--pgm", default=None, help="also export an 8-bit PGM preview")
    p.set_defaults(func=_cmd_fvmap)

    p = sub.add_parser("metrics", help="score reconstructions against references")
    p.add_argument("input", help="manifest (.jsonl) or pair list ('<recon> <ref>' lines)")
    p.add_argument("--clamp", action="store_true",
                   help="clamp reconstructions to [0, 1] before scoring")
    p.add_argument("-o", "--output", required=True, help="report JSON path")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("patchify", help="cut pattern-aligned patches from a cube")
    p.add_argument("cube")
    p.add_argument("--patch", nargs=2, type=int, metavar=("H", "W"), required=True)
    p.add_argument("--stride", type=int, default=None,
                   help="window stride (default: side of a square patch)")
    p.add_argument("--pattern", required=True, help="NxN or pattern JSON path")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=_cmd_patchify)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as ``warning: {message}``, without its source line."""
    print(f"warning: {message}", file=sys.stderr)


def cli_dispatch(argv: list[str]) -> int:
    """Parse and run one command; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except (SpecmosaicError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _keep_freed_heap() -> None:
    """Keep freed heap in the process instead of faulting in zeroed pages per
    record; either threshold alone only turns off glibc's adaptive rule."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's 64-bit adaptive ceiling
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice that, as glibc's own rule
    except (OSError, AttributeError, TypeError):  # no mallopt: macOS, Windows
        pass


def main() -> None:
    _keep_freed_heap()
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
