// Bit-exact golden pins shared by the tests that freeze an output.
//
// Every output field is reduced to its raw bits. A case pins one digest
// over all of its fields; a field pins one digest over all cases of its
// grid. On a mismatch the test names the first differing case and the
// first differing field, and prints the full actual tables so an
// intended change can be reviewed and re-pinned.
#ifndef TESTS_GOLDEN_PINS_H_
#define TESTS_GOLDEN_PINS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace hybridflow {

inline uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// FNV-1a over 64-bit words.
struct Fnv {
  uint64_t state = 0xcbf29ce484222325ULL;
  void Mix(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      state ^= (word >> (8 * byte)) & 0xffU;
      state *= 0x100000001b3ULL;
    }
  }
};

struct Pin {
  std::string name;
  uint64_t digest;
};

// Collects the per-field digests of every case of one grid.
class PinGrid {
 public:
  void BeginCase(const std::string& name) { cases_.push_back({name, {}}); }

  void Field(const std::string& name, uint64_t digest) {
    cases_.back().second.emplace_back(name, digest);
  }
  void Field(const std::string& name, double value) { Field(name, Bits(value)); }
  void Field(const std::string& name, int64_t value) {
    Field(name, static_cast<uint64_t>(value));
  }
  void Field(const std::string& name, int value) { Field(name, static_cast<int64_t>(value)); }
  void Field(const std::string& name, bool value) { Field(name, static_cast<uint64_t>(value)); }

  std::vector<Pin> CaseDigests() const {
    std::vector<Pin> pins;
    for (const auto& [name, fields] : cases_) {
      Fnv fnv;
      for (const auto& field : fields) {
        fnv.Mix(field.second);
      }
      pins.push_back({name, fnv.state});
    }
    return pins;
  }

  // Fields in first-seen order; a case may leave out fields of others.
  std::vector<Pin> FieldDigests() const {
    std::vector<Pin> pins;
    for (const auto& entry : cases_) {
      for (const auto& [name, digest] : entry.second) {
        size_t i = 0;
        while (i < pins.size() && pins[i].name != name) {
          ++i;
        }
        if (i == pins.size()) {
          pins.push_back({name, Fnv().state});
        }
        Fnv fnv{pins[i].digest};
        fnv.Mix(digest);
        pins[i].digest = fnv.state;
      }
    }
    return pins;
  }

 private:
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, uint64_t>>>> cases_;
};

inline std::string FirstMismatch(const std::vector<Pin>& actual,
                                 const std::vector<Pin>& expected) {
  for (size_t i = 0; i < actual.size() || i < expected.size(); ++i) {
    if (i >= actual.size()) {
      return "missing " + expected[i].name;
    }
    if (i >= expected.size()) {
      return "unexpected " + actual[i].name;
    }
    if (actual[i].name != expected[i].name || actual[i].digest != expected[i].digest) {
      return actual[i].name;
    }
  }
  return "";
}

inline std::string Table(const char* label, const std::vector<Pin>& pins) {
  std::ostringstream out;
  out << label << " = {\n";
  for (const Pin& pin : pins) {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "0x%016llxULL",
                  static_cast<unsigned long long>(pin.digest));
    out << "    {\"" << pin.name << "\", " << digest << "},\n";
  }
  out << "};\n";
  return out.str();
}

inline void ExpectPins(const PinGrid& grid, const std::vector<Pin>& cases,
                       const std::vector<Pin>& fields) {
  const std::vector<Pin> actual_cases = grid.CaseDigests();
  const std::vector<Pin> actual_fields = grid.FieldDigests();
  const std::string bad_case = FirstMismatch(actual_cases, cases);
  const std::string bad_field = FirstMismatch(actual_fields, fields);
  EXPECT_TRUE(bad_case.empty() && bad_field.empty())
      << "first differing case: " << (bad_case.empty() ? "(none)" : bad_case)
      << "\nfirst differing field: " << (bad_field.empty() ? "(none)" : bad_field)
      << "\nactual pins:\n"
      << Table("cases", actual_cases) << Table("fields", actual_fields);
}

}  // namespace hybridflow

#endif  // TESTS_GOLDEN_PINS_H_
