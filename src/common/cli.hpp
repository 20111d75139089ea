// Tiny command-line flag parser for bench/example binaries.
//
// Supports --name=value, --name value, and boolean --name / --no-name.
// Unknown flags are an error (catches typos in sweep scripts).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace emx {

class CliFlags {
 public:
  /// Registers a flag with its default and help text; returns *this.
  CliFlags& define(const std::string& name, const std::string& default_value,
                   const std::string& help);

  /// Parses argv; calls std::exit(0) after printing help on --help,
  /// and std::exit(2) on malformed/unknown flags.
  void parse(int argc, const char* const* argv);

  std::string str(const std::string& name) const;
  std::int64_t integer(const std::string& name) const;
  double real(const std::string& name) const;
  bool boolean(const std::string& name) const;

  /// Comma-separated integer list ("1,2,4,8").
  std::vector<std::int64_t> int_list(const std::string& name) const;

  /// True when the user passed the flag on the command line (even with a
  /// value equal to the default). Drives resume/replay conflict checks:
  /// only *explicit* flags may contradict a snapshot's manifest.
  bool explicitly_set(const std::string& name) const;

  std::string help_text(const std::string& program) const;

  /// The readings integer(), real() and boolean() give a flag's text: a
  /// whole strtoll base-0 number, a whole strtod number, true|1|yes|on
  /// or false|0|no|off|"". On any other text they return false, without
  /// aborting, and leave `out` as it was.
  static bool to_integer(const std::string& text, std::int64_t& out);
  static bool to_real(const std::string& text, double& out);
  static bool to_boolean(const std::string& text, bool& out);

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
    bool set_by_user = false;
  };
  const Flag& get(const std::string& name) const;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace emx
