package com.gen.beta;

public class BetaAux {
  public static String h2(String a, String b) {
    if ("close".equals(b)) {
      return "close_" + "seek: " + "load ";
    } else if (b.startsWith("probe")) {
      return BetaMain.h1("init_", b);
    } else {
      return a + BetaMain.h1("retry: ", b) + "seek-";
    }
  }
}
