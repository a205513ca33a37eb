"""Differentially private continual learning with per-task gradient memory
blocks and a moments-accountant privacy ledger."""
