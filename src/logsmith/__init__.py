"""logsmith: proactive log template extraction and streaming log parsing.

The pipeline has four stages: static analysis of source code (analyzer),
template extraction through a pluggable gateway (whitebox), streaming
clustering of unmatched logs (blackbox), and template matching with
strict template-level evaluation (matcher, evaluation).

The command line is the interface. This package re-exports only the names
that code outside it imports through it, which is the benchmark under
``perfbench/``; everything else is imported from the module defining it.
"""

from .templates import WILDCARD_TOKEN, TemplateBody, Wildcard

__all__ = ["TemplateBody", "WILDCARD_TOKEN", "Wildcard"]
