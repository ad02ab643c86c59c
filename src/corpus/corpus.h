// The 61-application corpus standing in for the paper's 61 third-party
// Node-RED packages (§6), plus the synthetic repository population behind
// Table 2.
//
// Apps are grouped into the §6.1 outcome buckets; within a bucket they vary
// genuinely (different flow shapes, helper structures, sinks and idioms):
//   kTurnstileOnly (22)  — Node-RED input flows, dynamic dispatch, closures,
//                          promise chains: found by Turnstile, missed by
//                          QueryDL
//   kBothFind       (5)  — direct core-I/O flows both analyzers handle;
//                          includes the apps where one tool finds more
//   kQueryDlOnly    (2)  — flows through inherited (prototype-chain) methods
//   kBothMiss      (26)  — RED.httpNode-style framework-injected endpoints
//   kNoPaths        (6)  — genuinely no privacy-sensitive dataflow
//
// Ground truth (`ground_truth_paths`) is the per-app manual annotation: the
// number of distinct source→sink dataflows a human reviewer identifies,
// independent of what either tool detects.
#ifndef TURNSTILE_SRC_CORPUS_CORPUS_H_
#define TURNSTILE_SRC_CORPUS_CORPUS_H_

#include <string>
#include <vector>

namespace turnstile {

enum class CorpusBucket {
  kTurnstileOnly,
  kBothFind,
  kQueryDlOnly,
  kBothMiss,
  kNoPaths,
};

const char* CorpusBucketName(CorpusBucket bucket);

struct CorpusApp {
  std::string name;
  std::string category;          // camera / voice / sensor / storage / ...
  CorpusBucket bucket;
  std::string source;            // MiniScript module source
  std::string flow_json;         // RedFlow instantiation spec
  std::string entry_kind;        // "node" (InjectInput) or "emitter" (EmitEvent)
  std::string entry_ref;         // node id, or emitter tag ("net.socket", ...)
  std::string entry_event;       // event name for emitter entries
  std::string message_template;  // workload JSON template
  std::string policy_json;       // IFC policy for the run-time evaluation
  int ground_truth_paths = 0;    // manual annotation
  std::string notes;             // which patterns the app exercises
};

// All 61 applications.
const std::vector<CorpusApp>& Corpus();

// Lookup by name; nullptr when unknown.
const CorpusApp* FindCorpusApp(const std::string& name);

// Deterministic vendored-dependency bundle: the utility code a real package
// ships alongside its own sources (the paper analyzed whole packages, so both
// tools processed dependencies too). `chain_length` controls the size of the
// bundle's initialization chains; ~400 yields a package-scale program of
// several thousand AST nodes. Analysis-only: it parses and type-checks but is
// never executed by the flow engine.
std::string VendoredDependencyBundle(int chain_length);

// Synthetic analysis-scaling program: `n` handler blocks, each one sensitive
// flow from a socket's data callback through a helper into fs.writeFileSync.
std::string SyntheticHandlerProgram(int n);

// --- Table 2 census substrate --------------------------------------------------

// One synthetic repository for the framework-popularity census.
struct CensusRepo {
  std::string name;
  std::string main_source_excerpt;  // file contents the signature scanner reads
  std::string true_framework;       // generation ground truth
};

// Generates the synthetic population of repositories (deterministic).
std::vector<CensusRepo> GenerateCensusPopulation(uint64_t seed);

// The framework-signature scanner (the measurement procedure of Table 2):
// returns the detected framework name or "" when none matches.
std::string DetectFramework(const std::string& source);

}  // namespace turnstile

#endif  // TURNSTILE_SRC_CORPUS_CORPUS_H_
