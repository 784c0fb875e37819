#!/usr/bin/env python3
"""Sweep the decode count threshold and print exact error rates as CSV.

Useful for picking a threshold for nonstandard rate/window settings;
columns: count_threshold, threshold_hz, p_minus_as_plus, p_plus_as_minus,
total_error (the total per-dimension error that ``word2spike analyze``
prints, zero-count terms included).
"""

import argparse

from word2spike.spike_codec import CodecConfig, threshold_curve


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--window-ms", type=float, default=200.0)
    ap.add_argument("--rate-plus", type=float, default=100.0)
    ap.add_argument("--rate-minus", type=float, default=50.0)
    args = ap.parse_args()

    # the curve does not depend on the configured threshold; any valid one will do
    cfg = CodecConfig(
        window_s=args.window_ms / 1000.0,
        rate_plus_hz=args.rate_plus,
        rate_minus_hz=args.rate_minus,
        threshold_hz=(args.rate_plus + args.rate_minus) / 2,
    )
    print("count_threshold,threshold_hz,p_minus_as_plus,p_plus_as_minus,total_error")
    for a in threshold_curve(cfg):
        k = a.count_threshold
        print(
            f"{k},{k / cfg.window_s:.3f},{a.p_minus_as_plus:.6g},"
            f"{a.p_plus_as_minus:.6g},{a.total_error:.6g}"
        )


if __name__ == "__main__":
    main()
