"""Hardware benchmark fixtures for the comparison-report renderer.

These numbers come from a six-joint hardware campaign and are not
reproducible at desk scale; they exist solely so the report renderer can be
exercised (and its output checked byte-exactly) on realistic content.  The
values are the text cells `cli.comparison_csv_text` writes verbatim for a
simulated table too, so rendering never reformats them.

The campaign reported the error L2 norm twice with inconsistent values;
both pairs are carried, the second flagged as the alternate reading.
"""

from __future__ import annotations

__all__ = [
    "HARDWARE_COMPARISON_ROWS",
    "HARDWARE_AGGREGATES",
    "HARDWARE_FIXTURE_NAME",
]

HARDWARE_FIXTURE_NAME = "hardware"

# joint -> (IVC_PID, IVC_HPID, IAVC_PID, IAVC_HPID, ITAE_PID, ITAE_HPID)
HARDWARE_COMPARISON_ROWS: tuple[tuple[str, ...], ...] = (
    ("982", "615", "114", "65", "2.776", "2.806"),
    ("2390", "618", "142", "68", "4.385", "3.704"),
    ("836", "853", "43", "50", "1.198", "0.987"),
    ("111", "56", "67", "65", "6.589", "6.345"),
    ("109", "133", "73", "72", "7.925", "8.150"),
    ("552", "591", "102", "108", "1.802", "1.3733"),
)

# (name, PID, HPID, note): stacked-signal L2 norms over the 9 s window, the
# alternate error reading last and flagged
HARDWARE_AGGREGATES: tuple[tuple[str, str, str, str], ...] = (
    ("l2_control", "423.933", "329.459", ""),
    ("l2_error", "52.2818", "55.0789", ""),
    ("l2_error_alt", "59.214", "55.865", "conflicting_report"),
)
