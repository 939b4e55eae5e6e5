"""Numerical toolkit for Brascamp-Lieb constants and induction on scales."""
