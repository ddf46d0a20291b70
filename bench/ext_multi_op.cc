// Multi-operation search-space extension (paper §II-C1): enlarge the
// per-pair candidate set from {memorize, Hadamard, naïve} to
// {memorize, Hadamard, inner product, naïve} and compare against the
// paper's 3-way search. Both are one RunOptInter call; the 4-way search
// re-trains each factorized pair with the operator it chose.

#include <cstdio>

#include "bench_util.h"
#include "core/pipeline.h"

using namespace optinter;
using namespace optinter::bench;

int main(int argc, char** argv) {
  FlagParser flags;
  AddCommonFlags(&flags);
  int exit_code = 0;
  if (!ParseOrExit(&flags, argc, argv, &exit_code)) return exit_code;
  BenchReport report("ext_multi_op", flags);

  for (const auto& name : DatasetList(flags, {"criteo_like"})) {
    PrepareOptions popts;
    popts.rows_scale = flags.GetDouble("rows_scale");
    auto prepared = PrepareProfile(name, popts);
    if (!prepared.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   prepared.status().ToString().c_str());
      return 1;
    }
    const PreparedDataset& p = *prepared;
    HyperParams hp = DefaultHyperParams(name);
    ApplyOverrides(flags, &hp);
    TrainOptions topts = MakeTrainOptions(flags, hp);

    report.Section("Multi-operation search space: " + name);

    // The paper's 3-way search, then the 4-way search with a per-pair
    // operator choice.
    for (const bool multi_op : {false, true}) {
      SearchOptions sopts;
      sopts.search_epochs = hp.search_epochs;
      sopts.verbose = flags.GetBool("verbose");
      if (multi_op) {
        sopts.fns = {FactorizeFn::kHadamard, FactorizeFn::kInnerProduct};
      }
      OptInterResult r = RunOptInter(p.data, p.splits, hp, sopts, topts);
      std::string extra = ArchCountsToString(CountArchitecture(r.search.arch));
      if (multi_op) {
        size_t hadamard = 0, inner = 0;
        for (size_t q = 0; q < r.search.arch.size(); ++q) {
          if (r.search.arch[q] == InterMethod::kFactorize) {
            (r.search.fns[q] == FactorizeFn::kHadamard ? hadamard : inner)++;
          }
        }
        extra += StrFormat(" of which hadamard=%zu inner=%zu", hadamard,
                           inner);
      }
      report.AddRow(multi_op ? "OptInter(4way)" : "OptInter(3way)",
                    r.retrain.final_test.auc, r.retrain.final_test.logloss,
                    r.param_count, extra);
    }
  }
  return report.Finish();
}
