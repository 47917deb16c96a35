"""The round-trip certificate printed once a back-mapped solution checks out."""

from __future__ import annotations


def format_certificate(source: str, target: str, forward: str, solution: str) -> str:
    """Six lines naming both problems, the forward map and the back-mapped solution.

    Print it only after the back-mapped solution has passed its check on the source.
    """
    return "\n".join(
        [
            "CERTIFICATE",
            f"source: {source}",
            f"target: {target}",
            f"forward: {forward}",
            f"solution: {solution}",
            "verdict: pass",
        ]
    ) + "\n"
