/// Mutation fuzz of every input format. Each writer's output for one small
/// generated design (the .net and Verilog netlists, the library, the derate
/// table, a corner spec, the SDC and a written ECO journal) is truncated,
/// byte-flipped and token-spliced with fixed seeds, and each mutant goes
/// through the shell command that loads its format, with the other inputs
/// at their defaults. Every mutant must either load and answer report_wns
/// or fail with an error that begins with its path — and, for a fault in
/// the text itself, the line: "<path>:<line>: ". An abort fails the whole
/// binary. The tier-1 script re-runs the InputFuzz* suite under ASan+UBSan.

#include <cstdint>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aocv/derate_io.hpp"
#include "liberty/liberty_io.hpp"
#include "netlist/netlist_io.hpp"
#include "netlist/verilog_io.hpp"
#include "shell/interpreter.hpp"
#include "sta/sdc.hpp"
#include "test_helpers.hpp"
#include "util/input.hpp"
#include "util/rng.hpp"

namespace mgba::shell {
namespace {

constexpr std::size_t kMutantsPerKind = 40;  // x 3 kinds per format

struct Corpus {
  std::string net, verilog, library, derates, corners, sdc, journal;
};

std::string write_file(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + name;
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

/// Writer output for a 120-gate design, and a journal of one resize, one
/// buffer and the weights of one fit.
const Corpus& corpus() {
  static const Corpus c = [] {
    std::ostringstream sink;
    ShellInterpreter interp(sink);
    EXPECT_TRUE(interp
                    .execute_line("read_netlist -gates 120 -flops 16 -seed 5 "
                                  "-utilization 1.05")
                    .ok());
    ShellSession& s = interp.session();
    const Design& d = s.design();
    EXPECT_TRUE(s.begin_eco().empty());
    for (const auto& [inst, cell] :
         testing_helpers::resize_plan(s.library(), d, 1, 3)) {
      const std::string& name = s.library().cell(cell).name;
      EXPECT_TRUE(s.size_cell(d.instance(inst).name, name).empty());
    }
    for (NetId n = 0; n < d.num_nets(); ++n) {
      const Net& net = d.net(n);
      if (!net.driver || net.sinks.empty()) continue;
      std::string buffer;
      EXPECT_TRUE(
          s.insert_buffer(net.name, s.sink_spec(net.sinks[0]), "", buffer)
              .empty());
      break;
    }
    std::vector<MgbaFlowResult> results;
    EXPECT_TRUE(s.fit(MgbaFlowOptions{}, false, results).empty());
    std::size_t records = 0;
    EXPECT_TRUE(s.end_eco(records).empty());

    Corpus out;
    std::ostringstream journal;
    s.journal().write(journal);
    out.journal = journal.str();
    // The design as it was loaded: the journal replays onto it.
    EXPECT_TRUE(interp
                    .execute_line("read_netlist -gates 120 -flops 16 -seed 5 "
                                  "-utilization 1.05")
                    .ok());
    out.net = netlist_to_string(s.design());
    out.verilog = verilog_to_string(s.design());
    out.library = library_to_string(s.library());
    out.derates = derate_table_to_string(s.table());
    out.corners =
        "# two corners\n"
        "corner slow delay 1.12 slew 1.06 constraint 1.04 derate_margin 1.3\n"
        "corner fast delay 0.85 slew 0.92 derate_margin 0.7\n";
    out.sdc = sdc_to_string(s.timer().constraints()) +
              "set_multicycle_path 2 -to [get_ports out_0]\n";
    return out;
  }();
  return c;
}

/// Three kinds of mutant of \p text, kind chosen by \p i: a truncation, up
/// to three byte flips, or a token spliced over another.
std::string mutate(const std::string& text, std::size_t i, Rng& rng) {
  std::string m = text;
  switch (i % 3) {
    case 0:
      m.resize(rng.uniform_index(m.size()));
      break;
    case 1:
      for (std::uint64_t f = 0, n = 1 + rng.uniform_index(3); f < n; ++f) {
        m[rng.uniform_index(m.size())] =
            static_cast<char>(rng.uniform_index(256));
      }
      break;
    default: {
      // A whitespace-delimited word of the text replaces another one.
      const auto word_at = [&](std::size_t pos) {
        const std::size_t b = m.find_last_of(" \n", pos);
        const std::size_t begin = b == std::string::npos ? 0 : b + 1;
        const std::size_t e = m.find_first_of(" \n", begin);
        return std::make_pair(begin,
                              (e == std::string::npos ? m.size() : e) - begin);
      };
      const auto [from, from_len] = word_at(rng.uniform_index(m.size()));
      const std::string word = m.substr(from, from_len);
      const auto [to, to_len] = word_at(rng.uniform_index(m.size()));
      m.replace(to, to_len, word);
      break;
    }
  }
  return m;
}

/// The clean design, written once, is the default every other format's
/// mutant loads against.
std::string clean_net() {
  static const std::string path = write_file("clean.net", corpus().net);
  return path;
}

/// Loads a mutant at \p path into the interpreter's session; returns the
/// error, "" when it loaded.
using Loader =
    std::function<std::string(ShellInterpreter&, const std::string&)>;

/// A loader that runs shell \p lines, with "$F" standing for the mutant.
Loader shell_lines(std::vector<std::string> lines) {
  return [lines](ShellInterpreter& interp, const std::string& path) {
    for (std::string line : lines) {
      if (const auto at = line.find("$F"); at != std::string::npos) {
        line.replace(at, 2, quote(path));
      }
      const CommandResult r = interp.execute_line(line);
      if (!r.ok()) return r.error;
    }
    return std::string();
  };
}

/// Runs every mutant of \p original through \p load, then report_wns.
void fuzz(const std::string& name, const std::string& original,
          std::uint64_t seed, const Loader& load) {
  Rng rng(seed);
  std::size_t loaded = 0;
  for (std::size_t i = 0; i < 3 * kMutantsPerKind; ++i) {
    const std::string path = write_file(name, mutate(original, i, rng));
    std::ostringstream sink;
    ShellInterpreter interp(sink);
    const std::string error = load(interp, path);
    if (error.empty()) {
      const CommandResult r = interp.execute_line("report_wns");
      EXPECT_TRUE(r.ok()) << name << " mutant " << i << ": " << r.error;
      ++loaded;
      continue;
    }
    // Faults in the text name a line; design rules (a cycle, the clock
    // port, a journal record the design cannot take) name the file. The
    // clean design may be the file at fault: a mutant library can lack its
    // cells, a mutant SDC can name a clock port it lacks.
    const std::regex located("^(" + path + "|" + clean_net() + "):([0-9]+:)? ");
    EXPECT_TRUE(std::regex_search(error, located))
        << name << " mutant " << i << ": " << error;
  }
  // Some mutants of every format still load: a flipped digit is a number.
  EXPECT_GT(loaded, 0u) << name;
}

/// Loads the clean design under the SDC at \p sdc.
std::string load_with_sdc(ShellInterpreter& interp, const std::string& sdc) {
  LoadRequest request;
  request.netlist_path = clean_net();
  request.sdc_path = sdc;
  return interp.session().load(request);
}

TEST(InputFuzz, CleanInputsLoad) {
  const Corpus& c = corpus();
  std::ostringstream sink;
  ShellInterpreter interp(sink);
  for (const std::string& line :
       {"read_library " + write_file("clean.lib", c.library),
        "read_derates " + write_file("clean.derates", c.derates),
        "read_netlist " + clean_net(),
        "replay_eco " + write_file("clean.eco", c.journal),
        "read_corners " + write_file("clean.corners", c.corners),
        "read_netlist " + write_file("clean.v", c.verilog),
        std::string("report_wns")}) {
    const CommandResult r = interp.execute_line(line);
    EXPECT_TRUE(r.ok()) << line << ": " << r.error;
  }
  EXPECT_EQ(load_with_sdc(interp, write_file("clean.sdc", c.sdc)), "");
}

TEST(InputFuzz, NetlistMutants) {
  fuzz("fuzz.net", corpus().net, 101, shell_lines({"read_netlist $F"}));
}

TEST(InputFuzz, VerilogMutants) {
  fuzz("fuzz.v", corpus().verilog, 102, shell_lines({"read_netlist $F"}));
}

TEST(InputFuzz, LibraryMutants) {
  fuzz("fuzz.lib", corpus().library, 103,
       shell_lines({"read_library $F", "read_netlist " + clean_net()}));
}

TEST(InputFuzz, DerateMutants) {
  fuzz("fuzz.derates", corpus().derates, 104,
       shell_lines({"read_derates $F", "read_netlist " + clean_net()}));
}

TEST(InputFuzz, CornerMutants) {
  fuzz("fuzz.corners", corpus().corners, 105,
       shell_lines({"read_netlist " + clean_net(), "read_corners $F"}));
}

TEST(InputFuzz, SdcMutants) {
  fuzz("fuzz.sdc", corpus().sdc, 106, load_with_sdc);
}

TEST(InputFuzz, JournalMutants) {
  fuzz("fuzz.eco", corpus().journal, 107,
       shell_lines({"read_netlist " + clean_net() + " -utilization 1.05",
                    "replay_eco $F"}));
}

}  // namespace
}  // namespace mgba::shell
