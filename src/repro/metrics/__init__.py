"""Objective quality metrics and reporting statistics."""
