"""Gain-based feature importance for trained ensembles.

Each accepted split contributes its realized gain to the split feature's
total. Appended network columns ("attn_*") can be collapsed into a single
"attention_block" row so reports show original features alongside one
aggregate for the learned block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .gbdt import Ensemble

ATTENTION_PREFIX = "attn_"
ATTENTION_BLOCK = "attention_block"


@dataclass
class ImportanceEntry:
    feature: str
    gain: float
    splits: int
    share: float


@dataclass
class ImportanceTable:
    entries: list[ImportanceEntry]


def gain_importance(model: Ensemble) -> ImportanceTable:
    """Sum realized split gains per feature over every tree.

    Internal nodes are summed in the ensemble record's order, tree by tree and
    in pre-order within a tree; bincount adds its weights in input order, so
    each total is that sequential sum.
    """
    d = len(model.feature_names)
    feature, gain = model.nodes.feature, model.nodes.gain
    internal = feature >= 0
    gains = np.bincount(feature[internal], weights=gain[internal], minlength=d).tolist()
    splits = np.bincount(feature[internal], minlength=d).tolist()
    total = sum(gains)
    entries = [
        ImportanceEntry(
            feature=name,
            gain=gains[i],
            splits=splits[i],
            share=gains[i] / total if total > 0 else 0.0,
        )
        for i, name in enumerate(model.feature_names)
    ]
    entries.sort(key=lambda e: (-e.gain, e.feature))
    return ImportanceTable(entries=entries)


def collapse_attention_block(table: ImportanceTable) -> ImportanceTable:
    """Merge all attn_* rows into one attention_block row; totals unchanged."""
    attn = [e for e in table.entries if e.feature.startswith(ATTENTION_PREFIX)]
    if not attn:
        return table
    kept = [e for e in table.entries if not e.feature.startswith(ATTENTION_PREFIX)]
    merged = ImportanceEntry(
        feature=ATTENTION_BLOCK,
        gain=sum(e.gain for e in attn),
        splits=sum(e.splits for e in attn),
        share=sum(e.share for e in attn),
    )
    entries = kept + [merged]
    entries.sort(key=lambda e: (-e.gain, e.feature))
    return ImportanceTable(entries=entries)


def rank_report(table: ImportanceTable, top_n: int | None = None) -> tuple[str, str]:
    """(aligned text, CSV) rankings, descending gain with alphabetical ties."""
    ranked = sorted(table.entries, key=lambda e: (-e.gain, e.feature))
    if top_n is not None:
        if top_n < 1:
            raise ConfigError(f"top must be at least 1, got {top_n}")
        ranked = ranked[:top_n]
    csv_lines = ["rank,feature,gain,share,splits"]
    for rank, e in enumerate(ranked, start=1):
        csv_lines.append(f"{rank},{e.feature},{e.gain:.6f},{e.share:.6f},{e.splits}")
    name_w = max([len("feature")] + [len(e.feature) for e in ranked])
    text_lines = [f"{'rank':>4}  {'feature'.ljust(name_w)}  {'gain':>12}  {'share':>8}  {'splits':>6}"]
    for rank, e in enumerate(ranked, start=1):
        text_lines.append(
            f"{rank:>4}  {e.feature.ljust(name_w)}  {e.gain:>12.6f}  {e.share:>8.4f}  {e.splits:>6}"
        )
    return "\n".join(text_lines), "\n".join(csv_lines)
