#!/usr/bin/env bash
# Regenerate every table/experiment result in sequence (several minutes each).
set -e
cd "$(dirname "$0")/.."
# The driver, the PySpark daemon and the level-job workers all import repro.
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
for job in table2_datasets table34_pes table5_queries \
           table6_vqf table7_bio exp1_vary_k exp1_vary_emax exp2_baselines \
           exp2_opt exp3_opts exp5_swap exp7_rr; do
  echo "=== jobs/$job.py ==="
  python "jobs/$job.py"
done
