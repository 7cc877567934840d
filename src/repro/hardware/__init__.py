"""Analytical hardware models: the CAU and the DRAM energy accounting."""
