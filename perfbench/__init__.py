"""End-to-end benchmark of the replacement-paths solver and serve tier.

Run ``python3 perfbench/run.py --help``; ``perfbench/NOTES.md`` says
what each workload and metric is for.
"""
