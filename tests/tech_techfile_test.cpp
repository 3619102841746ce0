#include "tech/techfile.hpp"

#include <gtest/gtest.h>

#include "check/codes.hpp"
#include "check/ingest.hpp"
#include "util/error.hpp"

namespace tech = lv::tech;
namespace u = lv::util;

TEST(Techfile, RoundTripsEveryPredefinedProcess) {
  for (const auto& t :
       {tech::bulk_cmos_06um(), tech::soi_low_vt(), tech::soias(),
        tech::dual_vt_mtcmos(), tech::bulk_body_bias()}) {
    const std::string text = tech::to_techfile(t);
    const tech::Process back = tech::parse_techfile(text);
    EXPECT_EQ(back.name, t.name);
    EXPECT_DOUBLE_EQ(back.vdd_nominal, t.vdd_nominal);
    EXPECT_DOUBLE_EQ(back.nmos.vt0, t.nmos.vt0);
    EXPECT_DOUBLE_EQ(back.nmos.n_sub, t.nmos.n_sub);
    EXPECT_DOUBLE_EQ(back.pmos.k_drive, t.pmos.k_drive);
    EXPECT_EQ(back.vt_control, t.vt_control);
    EXPECT_DOUBLE_EQ(back.soias_geometry.t_box, t.soias_geometry.t_box);
    EXPECT_DOUBLE_EQ(back.high_vt_offset, t.high_vt_offset);
  }
}

TEST(Techfile, MinimalFileUsesDefaults) {
  const auto t = tech::parse_techfile(
      "lvtech 1\n[process]\nname = custom\n[nmos]\nvt0 = 0.3\n");
  EXPECT_EQ(t.name, "custom");
  EXPECT_DOUBLE_EQ(t.nmos.vt0, 0.3);
  EXPECT_DOUBLE_EQ(t.vdd_nominal, 1.0);  // default from soi baseline
}

TEST(Techfile, CommentsAndBlanksIgnored) {
  const auto t = tech::parse_techfile(
      "# a comment\nlvtech 1\n\n[process]\nname = c  # trailing\n");
  EXPECT_EQ(t.name, "c");
}

TEST(Techfile, MissingHeaderRejected) {
  EXPECT_THROW(tech::parse_techfile("[process]\nname = x\n"), u::Error);
}

TEST(Techfile, UnknownSectionRejected) {
  EXPECT_THROW(
      tech::parse_techfile("lvtech 1\n[bogus]\nk = 1\n"), u::Error);
}

TEST(Techfile, UnknownKeyRejectedWithLineNumber) {
  try {
    tech::parse_techfile("lvtech 1\n[nmos]\nnot_a_key = 1\n");
    FAIL() << "expected throw";
  } catch (const u::Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Techfile, BadNumberRejected) {
  EXPECT_THROW(
      tech::parse_techfile("lvtech 1\n[nmos]\nvt0 = abc\n"), u::Error);
}

TEST(Techfile, KeyOutsideSectionRejected) {
  EXPECT_THROW(tech::parse_techfile("lvtech 1\nvt0 = 0.3\n"), u::Error);
}

TEST(Techfile, UnknownVtControlRejected) {
  EXPECT_THROW(tech::parse_techfile(
                   "lvtech 1\n[process]\nvt_control = magic\n"),
               u::Error);
}

TEST(Techfile, ParsedProcessIsValidated) {
  // The parser checks syntax only; vdd_min > vdd_nominal is a rule of
  // Process, which the validated entry point applies.
  const std::string text = "lvtech 1\n[process]\nname = x\nvdd_min = 5.0\n";
  EXPECT_NO_THROW(tech::parse_techfile(text));
  try {
    (void)lv::check::require_techfile(text);
    FAIL() << "expected InputError";
  } catch (const lv::check::InputError& e) {
    EXPECT_EQ(e.code(), lv::check::codes::tech_vdd_order);
  }
}
