/**
 * @file
 * Unit tests for the shared JSON layer: parsing, escaping, lossless
 * number round-trips, ordered objects, error reporting, the strict
 * grammar (RFC 8259 numbers, no repeated members), and the value
 * semantics of the 16-byte node.
 */

#include <gtest/gtest.h>

#include <limits>
#include <type_traits>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"

namespace memtherm
{
namespace
{

TEST(Json, ParsePrimitives)
{
    EXPECT_TRUE(Json::parse("null").isNull());
    EXPECT_EQ(Json::parse("true").asBool(), true);
    EXPECT_EQ(Json::parse("false").asBool(), false);
    EXPECT_DOUBLE_EQ(Json::parse("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(Json::parse("-3.5e2").asNumber(), -350.0);
    EXPECT_EQ(Json::parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParseNested)
{
    Json j = Json::parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
    ASSERT_TRUE(j.isObject());
    const auto &a = j.at("a").asArray();
    ASSERT_EQ(a.size(), 3u);
    EXPECT_DOUBLE_EQ(a[0].asNumber(), 1.0);
    EXPECT_EQ(a[2].at("b").asBool(), true);
    EXPECT_EQ(j.at("c").asString(), "x");
    EXPECT_EQ(j.find("missing"), nullptr);
    EXPECT_THROW(j.at("missing"), FatalError);
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json j = Json::object();
    j.set("zebra", 1).set("alpha", 2).set("mid", 3);
    const auto &m = j.asObject();
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m[0].first, "zebra");
    EXPECT_EQ(m[1].first, "alpha");
    EXPECT_EQ(m[2].first, "mid");

    // set() on an existing key overwrites in place.
    j.set("alpha", 9);
    EXPECT_EQ(j.asObject().size(), 3u);
    EXPECT_DOUBLE_EQ(j.at("alpha").asNumber(), 9.0);
}

TEST(Json, StringEscaping)
{
    Json j = Json::object();
    std::string nasty = "quote\" backslash\\ newline\n tab\t bell\x07";
    j.set("k", nasty);
    Json back = Json::parse(j.dump());
    EXPECT_EQ(back.at("k").asString(), nasty);

    // Escapes parse to the characters they name.
    EXPECT_EQ(Json::parse(R"("A\n\"\\")").asString(), "A\n\"\\");
    // Surrogate pairs decode to UTF-8.
    EXPECT_EQ(Json::parse(R"("😀")").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(Json, NumbersRoundTripLosslessly)
{
    const double values[] = {0.1,
                             1.0 / 3.0,
                             6893.4374632337567,
                             1e-300,
                             -2.5e300,
                             9007199254740991.0,
                             52.839999999998057};
    for (double v : values) {
        Json j = Json::array();
        j.push(v);
        double back = Json::parse(j.dump()).asArray()[0].asNumber();
        EXPECT_EQ(back, v) << "value " << v;
    }
    // Integers print without a decimal point.
    EXPECT_EQ(Json(4).dump(0), "4");
    EXPECT_EQ(Json(-17.0).dump(0), "-17");
    EXPECT_THROW(Json(std::numeric_limits<double>::infinity()).dump(),
                 FatalError);
}

TEST(Json, DumpParseIdentity)
{
    Json doc = Json::object();
    doc.set("name", "round-trip");
    doc.set("flag", true);
    doc.set("nothing", Json());
    Json arr = Json::array();
    arr.push(1.5).push("two").push(Json::object().set("deep", 0.25));
    doc.set("list", std::move(arr));

    Json pretty = Json::parse(doc.dump(2));
    Json compact = Json::parse(doc.dump(0));
    EXPECT_EQ(pretty, doc);
    EXPECT_EQ(compact, doc);
    // Identity is stable under repeated round-trips.
    EXPECT_EQ(Json::parse(pretty.dump(4)), doc);
}

TEST(Json, ParseErrorsCarryPosition)
{
    auto expectError = [](const std::string &text) {
        EXPECT_THROW(Json::parse(text), FatalError) << text;
    };
    expectError("");
    expectError("{");
    expectError("[1, ]");
    expectError("{\"a\" 1}");
    expectError("\"unterminated");
    expectError("tru");
    expectError("1.2.3");
    expectError("{} trailing");
    expectError("\"bad \\q escape\"");
    expectError("\"\\ud800 lone surrogate\"");
    expectError("\"\\udc00 lone low surrogate\"");

    try {
        Json::parse("{\n  \"a\": nope\n}");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
            << e.what();
    }

    auto expectMessage = [](const std::string &text,
                            const std::string &what) {
        try {
            (void)Json::parse(text);
            ADD_FAILURE() << "parsed: " << text;
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()), what) << text;
        }
    };
    // Numbers follow RFC 8259: no leading zeros, a digit on each side
    // of a '.', digits after an exponent. The whole run is the number.
    expectMessage("01", "fatal: json: invalid number at line 1:1");
    expectMessage("00", "fatal: json: invalid number at line 1:1");
    expectMessage("-01", "fatal: json: invalid number at line 1:1");
    expectMessage("-.5", "fatal: json: invalid number at line 1:1");
    expectMessage("1.", "fatal: json: invalid number at line 1:1");
    expectMessage("[1.]", "fatal: json: invalid number at line 1:2");
    expectMessage("[0.e1]", "fatal: json: invalid number at line 1:2");
    expectMessage("1e", "fatal: json: invalid number at line 1:1");
    expectMessage("1e+", "fatal: json: invalid number at line 1:1");
    expectMessage("-", "fatal: json: invalid number at line 1:1");
    expectMessage("{\"config\":{\"t_inlet\":045}}",
                  "fatal: json: invalid number at line 1:22");
    for (const char *ok : {"0", "-0", "0.5", "-0.0e0", "10", "1e5", "1E+5",
                           "2.5e-07", "123.456E-2"})
        EXPECT_NO_THROW(Json::parse(ok)) << ok;

    // An object names each member once; the repeat is located at its
    // key. set() still overwrites: the rule is the reader's.
    expectMessage("{\"a\": 1, \"a\": 2}",
                  "fatal: json: duplicate member 'a' at line 1:10");
    expectMessage("{\"config\": {\"copies_per_app\": 2,\n"
                  "            \"copies_per_app\": 1024}}",
                  "fatal: json: duplicate member 'copies_per_app' at "
                  "line 2:13");
    EXPECT_NO_THROW(Json::parse(R"({"a": {"a": 1}, "b": {"a": 2}})"));
}

TEST(Json, NodeIsSixteenBytes)
{
    // The node is a tag beside one 8-byte payload; a regrown node
    // multiplies the memory of every parsed or built document.
    static_assert(sizeof(Json) <= 16);
    static_assert(std::is_nothrow_move_constructible_v<Json>);
    EXPECT_LE(sizeof(Json), 16u);
}

TEST(Json, CopiesAreDeepAndIndependent)
{
    Json src = Json::parse(
        R"({"list": [1, [2, 3], {"k": "v"}], "obj": {"x": [true]}})");
    const Json snapshot = Json::parse(src.dump());
    Json copy = src;
    EXPECT_EQ(copy, src);

    // Edits to the copy leave the source alone, at every depth.
    copy.set("obj", Json::object().set("x", "changed"));
    copy.set("added", 1);
    EXPECT_EQ(src, snapshot);
    EXPECT_NE(copy, src);

    // And the other way round: the copy survives the source's change
    // and destruction.
    Json second = src;
    src.set("list", Json());
    src = Json();
    EXPECT_EQ(second, snapshot);
    EXPECT_EQ(second.at("list").asArray()[2].at("k").asString(), "v");

    // Copy assignment over a container replaces it wholesale.
    Json target = Json::parse(R"(["old", "values"])");
    target = second;
    EXPECT_EQ(target, snapshot);
}

TEST(Json, SelfAssignmentIsSafe)
{
    Json j = Json::parse(R"({"a": [1, {"b": "deep"}], "s": "text"})");
    const Json before = j;
    Json &alias = j;
    j = alias;
    EXPECT_EQ(j, before);
    j = std::move(alias);
    EXPECT_EQ(j, before);

    Json s("a string long enough to live outside any inline buffer");
    Json &salias = s;
    s = std::move(salias);
    EXPECT_EQ(s.asString(),
              "a string long enough to live outside any inline buffer");
}

TEST(Json, MovedFromIsNullAndReusable)
{
    Json a = Json::parse(R"({"k": [1, 2, 3]})");
    Json b = std::move(a);
    EXPECT_TRUE(a.isNull());
    EXPECT_EQ(b.at("k").asArray().size(), 3u);

    // A moved-from node takes new values like a fresh one.
    a.push(7);
    EXPECT_EQ(a.dump(0), "[7]");
    a = "now a string";
    EXPECT_EQ(a.asString(), "now a string");

    Json c;
    c = std::move(b);
    EXPECT_TRUE(b.isNull());
    b.set("again", true);
    EXPECT_EQ(b.dump(0), "{\"again\": true}");
    EXPECT_EQ(c.at("k").asArray()[2].asNumber(), 3.0);
}

TEST(Json, EqualityIsDeep)
{
    const Json a = Json::parse(R"({"x": [1, {"y": "z"}], "n": null})");
    EXPECT_EQ(a, Json::parse(R"({"x": [1, {"y": "z"}], "n": null})"));
    EXPECT_NE(a, Json::parse(R"({"x": [1, {"y": "Z"}], "n": null})"));
    EXPECT_NE(a, Json::parse(R"({"x": [1, {"y": "z"}, 2], "n": null})"));
    // Member order matters.
    EXPECT_NE(a, Json::parse(R"({"n": null, "x": [1, {"y": "z"}]})"));
    // An empty container equals an empty container, however made.
    EXPECT_EQ(Json::array(), Json::parse("[]"));
    EXPECT_EQ(Json::object(), Json::parse("{}"));
    EXPECT_NE(Json::array(), Json::object());
    EXPECT_NE(Json::array(), Json());
    EXPECT_TRUE(Json::object().asObject().empty());
    EXPECT_TRUE(Json::array().asArray().empty());
    EXPECT_EQ(Json::object().dump(0), "{}");
    EXPECT_EQ(Json::array().dump(0), "[]");
}

TEST(Json, TypeMismatchesAreFatal)
{
    Json j = Json::parse("[1]");
    EXPECT_THROW(j.asObject(), FatalError);
    EXPECT_THROW(j.asString(), FatalError);
    EXPECT_THROW(j.at("x"), FatalError);
    EXPECT_THROW(Json("s").asNumber(), FatalError);
}

TEST(Json, FileRoundTrip)
{
    std::string path = testing::TempDir() + "memtherm_json_test.json";
    Json doc = Json::object();
    doc.set("x", 0.1);
    doc.save(path);
    EXPECT_EQ(Json::load(path), doc);
    EXPECT_THROW(Json::load(path + ".does-not-exist"), FatalError);
}

} // namespace
} // namespace memtherm
