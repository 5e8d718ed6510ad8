#!/usr/bin/env bash
# Paired benchmark runs of this checkout (head) against a base revision.
#
#   bash tools/pairs/pairs.sh -base REV -pairs N -workload W[,W…] -seed S [-seconds T] [-moved] [-dir D]
#
# Checks REV out in a git worktree under D (a new temporary directory by
# default), builds each side's fedbench with that side's own
# benchmark/run.sh, and runs N pairs per workload on seeds S, S+1, …,
# the base first in even pairs and the head first in odd ones. The head
# is this checkout as it stands. tools/pairs/main.go then prints one JSON
# line per pair and one verdict per workload and metric, and fails when a
# pair's history_sha256 set or exact metric differs, unless -moved. The
# worktree is removed on exit; the result files stay in D.
set -euo pipefail
usage="usage: pairs.sh -base REV -pairs N -workload W[,W...] -seed S [-seconds T] [-moved] [-dir D]"
base= pairs= workloads= seed= seconds=15 moved=false dir=
while [ $# -gt 0 ]; do
	case "$1" in
	-base) base=$2; shift 2 ;;
	-pairs) pairs=$2; shift 2 ;;
	-workload) workloads=$2; shift 2 ;;
	-seed) seed=$2; shift 2 ;;
	-seconds) seconds=$2; shift 2 ;;
	-dir) dir=$2; shift 2 ;;
	-moved) moved=true; shift ;;
	*) echo "$usage" >&2; exit 2 ;;
	esac
done
if [ -z "$base" ] || [ -z "$pairs" ] || [ -z "$workloads" ] || [ -z "$seed" ]; then
	echo "$usage" >&2
	exit 2
fi
head="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
rev="$(git -C "$head" rev-parse --verify "$base^{commit}")"
dir="${dir:-$(mktemp -d)}"
mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"
tree="$dir/base-$rev"
git -C "$head" worktree add --detach "$tree" "$rev" >/dev/null
trap 'git -C "$head" worktree remove --force "$tree"; git -C "$head" worktree prune' EXIT
for side in "$tree" "$head"; do
	bash "$side/benchmark/run.sh" -manifest >/dev/null
done
list="$dir/pairs.tsv"
: >"$list"
for w in ${workloads//,/ }; do
	for ((i = 0; i < pairs; i++)); do
		s=$((seed + i))
		order="base head"
		if ((i % 2 == 1)); then
			order="head base"
		fi
		for side in $order; do
			root="$head"
			if [ "$side" = base ]; then
				root="$tree"
			fi
			"$root/.bench_build/fedbench" -workload "$w" -seed "$s" -seconds "$seconds" -trace 0 \
				-out "$dir/$w.$s.$side.json" >/dev/null
		done
		printf '%s\t%s\t%s\t%s\t%s\n' "$w" "$s" "${order%% *}" "$dir/$w.$s.base.json" "$dir/$w.$s.head.json" >>"$list"
	done
done
cd "$head"
go run ./tools/pairs -moved="$moved" -spec BENCHMARK.json "$list"
