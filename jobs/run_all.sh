#!/usr/bin/env bash
# Regenerate every result in sequence, one job per paper study (several
# minutes each).
set -e
cd "$(dirname "$0")/.."
# The driver, the PySpark daemon and the level-job workers all import repro.
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
for job in table2_datasets table34_pes vqf_studies exp1 exp2_baselines \
           exp2_opt exp3_opts exp5_swap; do
  echo "=== jobs/$job.py ==="
  python "jobs/$job.py"
done
